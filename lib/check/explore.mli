(** Deterministic interleaving exploration of the multicore runtime.

    The real runtime ([Nd_runtime]) only exhibits a concurrency bug
    when the OS happens to interleave its domains the wrong way — PR
    2's soak tests fired thousands of runs hoping for that timing.
    This module removes the luck: each worker of the {e production}
    dataflow engine ({!Nd_runtime.Executor.Engine}) runs as an
    effect-based fiber on a {e single} domain, the Chase–Lev deque
    yields control between its individual loads/stores
    ({!Nd_runtime.Deque.Hooks.set_yield}), and a controlled scheduler
    picks which fiber advances at every preemption point.  Because the
    only source of nondeterminism is that scheduler, every execution is
    a pure function of its seed (random-walk mode) or of its choice
    trail (bounded exhaustive mode): a failing interleaving is
    replayable forever, and shrinkable like any other test input.

    Determinism argument: fibers share one domain, so every shared
    access is sequentially consistent and totally ordered by the
    controller's choices; the deque hook yields at each
    linearization-relevant step, so the controller's choice sequence
    fixes the complete interleaving of deque operations; and the
    controller draws choices from a seeded {!Nd_util.Prng} (or replays
    an explicit trail).  Hence seed = schedule. *)

type mode =
  | Random of { seeds : int list }
      (** one seeded random-walk schedule per listed seed *)
  | Exhaustive of { max_runs : int }
      (** DFS over the schedule tree, at most [max_runs] schedules
          (complete for programs small enough to exhaust the tree) *)

type stats = {
  runs : int;  (** schedules executed *)
  steps : int;  (** total scheduler decisions across all runs *)
}

type failure = {
  seed : int option;  (** failing random-walk seed, for replay *)
  schedule : int list;  (** failing choice trail (exhaustive mode) *)
  message : string;
}

val pp_failure : Format.formatter -> failure -> unit

(** [explore_program ?workers ?grain ~mode ?reset ?check program] runs
    the production dataflow engine over [program] under controlled
    interleavings: [reset] is called before each schedule, [check]
    after it (e.g. compare the memory image against the serial
    reference); a schedule fails when [check] returns [Error], when any
    runtime invariant trips (an exception — e.g. the deque's hard
    lost-item failure), or when the scheduler stops making progress
    (lost-task livelock).  With [tracer], engine events (fire, steal,
    strand begin/end) are emitted as in a real run. *)
val explore_program :
  ?workers:int ->
  ?grain:int ->
  mode:mode ->
  ?reset:(unit -> unit) ->
  ?check:(unit -> (unit, string) result) ->
  ?tracer:Nd_trace.Collector.t ->
  Nd.Program.t ->
  (stats, failure) result

(** [explore_fiber_program] — as {!explore_program} but over the fiber
    backend's engine mode ({!Nd_runtime.Fiber_exec.make_engine}): one
    body per worker advances the pool with
    {!Nd_runtime.Fiber_exec.try_advance}, and the fiber runtime's
    promise-transition hook ({!Nd_runtime.Fiber_exec.Hooks.set_yield})
    adds preemption points inside the park/take windows.  The explorer
    never registers a domain as a pool worker, so every fiber hand-off
    routes through the pool's synchronized injector and the schedule
    stays a pure function of the controller's choices.  A schedule
    under which the pool stalls (every live fiber parked with work
    left — e.g. a lost wake-up, or a task never enabled) terminates
    deterministically and fails the post-run check. *)
val explore_fiber_program :
  ?workers:int ->
  ?grain:int ->
  mode:mode ->
  ?reset:(unit -> unit) ->
  ?check:(unit -> (unit, string) result) ->
  ?tracer:Nd_trace.Collector.t ->
  Nd.Program.t ->
  (stats, failure) result

(** [explore_deque ~mode ?n_thieves ?pushes ()] explores the deque in
    isolation: one owner fiber pushes [pushes] items (popping every
    fourth), [n_thieves] thief fibers steal concurrently, crossing
    several buffer growths.  Checks exactly-once delivery of every
    item.  This is the harness that detects the retired-buffer
    recycling bug when {!Nd_runtime.Deque.Hooks.set_drop_retired} is
    enabled. *)
val explore_deque :
  mode:mode ->
  ?n_thieves:int ->
  ?pushes:int ->
  unit ->
  (stats, failure) result
