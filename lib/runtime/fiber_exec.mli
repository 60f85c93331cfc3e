(** Effects-based fiber executor: the third real backend.

    Every task of the compiled {!Executor.task_graph} runs as a
    {e fiber}, a lightweight thread built on OCaml 5 effect handlers.
    The DRS fixes every dependence, fire edges included, before the
    program runs, so a task's fiber starts only when its in-degree
    reaches zero (the counting rule of {!Executor.run_dataflow}) and a
    compiled program never parks.  Parking is for the waits the DAG does
    not know, such as server jobs or strand actions awaiting a
    {!promise}: the wait captures the fiber's continuation into the
    promise's waiter list and returns the worker to its scheduling loop,
    so it costs no worker; the matching [fulfill] re-queues it.

    Scheduling is per-domain Chase–Lev deques ({!Deque}) with stealing,
    plus one synchronized injector for external submissions and for
    resumptions crossing in from non-worker threads.  The scheduler
    protocol is three effects — [Sched] (spawn), [Await], [Fulfill] —
    performed by fibers and interpreted by the per-pool handler; the
    handler resolves "my deque" through domain-local state, because a
    parked fiber may be resumed by any worker of the pool.

    Promises are single SC-atomic cells ([Pending waiters] →
    [Fulfilled v]), which carries the cross-domain memory-model
    argument: the fulfilling domain's prior writes happen-before the
    fulfilling CAS, which happens-before the resumed fiber runs
    (either inline after observing [Fulfilled], or through a
    synchronized run queue).  See DESIGN.md §15. *)

type t
(** A fiber pool: either a one-shot program run ({!make_engine} /
    {!run_program}) or a long-lived server pool ({!create}). *)

type 'a promise

(** Raised by {!run_program} when no fiber can run and work is left — a
    cyclic or unfulfillable wait; [blocked] counts the parked fibers
    and the tasks never enabled. *)
exception Deadlock of { blocked : int }

(** Raised by {!submit} after {!shutdown}. *)
exception Closed

type stats = {
  workers : int;
  started : int;
      (** server pools: worker domains started so far, at most
          [workers]; 0 for program runs and engines *)
  fibers : int;  (** fibers ever spawned (tasks, submissions, spawns) *)
  completed : int;  (** fibers finished (including erroring ones) *)
  suspensions : int;  (** times a fiber parked on an unfulfilled promise *)
  steals : int;  (** successful deque steals *)
  peak_blocked : int;  (** high-water mark of simultaneously parked fibers *)
  blocked : int;  (** fibers parked right now *)
  errors : int;  (** fibers whose body raised (non-fatal) *)
}

(** {2 Promises}

    Usable from any thread; {!await} additionally works outside a fiber
    only on an already-fulfilled promise (it cannot park). *)

val promise : unit -> 'a promise

(** [fulfill p v] — fulfill [p] and re-queue every parked waiter on the
    pool that parked it.  @raise Invalid_argument on a second fulfill. *)
val fulfill : 'a promise -> 'a -> unit

(** [await p] — the promise's value; parks the calling fiber until
    fulfilled.  @raise Invalid_argument outside a fiber when [p] is
    not yet fulfilled. *)
val await : 'a promise -> 'a

val peek : 'a promise -> 'a option

(** {2 Fiber operations} *)

(** [spawn f] — a new fiber of the current pool, queued on the current
    worker's deque.  @raise Invalid_argument outside a fiber. *)
val spawn : (unit -> unit) -> unit

(** Reschedule the current fiber behind its worker's queued work; a
    no-op outside a fiber. *)
val yield : unit -> unit

(** Worker index of the calling domain in its pool, [None] off-pool.
    Stable across [await] only on single-worker pools — a resumed
    fiber may run anywhere. *)
val self : unit -> int option

(** {2 Running programs} *)

(** [run_program ?workers ?grain ?tracer program] executes the compiled
    program as one fiber per task of {!Executor.task_graph} (so [grain]
    and [tracer] mean exactly what they do for the other backends),
    each started when its last predecessor finishes, and returns the
    pool's counters; [suspensions] and [peak_blocked] stay 0 unless a
    strand action awaits a promise.  Strand, steal, spawn and fire trace
    events match {!Executor.run_dataflow}'s.  A fiber body raising
    aborts the run and re-raises; a task never enabled or a wait never
    fulfilled raises {!Deadlock} instead of returning or hanging.

    The workers are an {!Executor.crew} call with [~keep:true]: a
    helper domain that ran them parks for the next call instead of
    exiting, because on OCaml 5.1 an exiting domain drops the fiber
    stacks it cached, so back-to-back runs reuse one helper and its
    stacks (DESIGN.md §7, "Worker domains"). *)
val run_program :
  ?workers:int ->
  ?grain:int ->
  ?tracer:Nd_trace.Collector.t ->
  Nd.Program.t ->
  stats

(** {!run_program} with the result ignored — the {!Backend.S}-shaped
    entry point; it borrows and parks helpers the same way. *)
val run :
  ?workers:int ->
  ?grain:int ->
  ?tracer:Nd_trace.Collector.t ->
  Nd.Program.t ->
  unit

(** {2 Long-lived server pools}

    The analysis server's one dispatch path.  Each submission runs as a
    root fiber; errors are counted and retained rather than fatal
    (except [Out_of_memory]/[Stack_overflow]/[Assert_failure], which
    kill the worker and re-raise at {!shutdown}'s join).

    Worker domains start on demand, one at a time: {!submit} starts
    worker [k+1] only when the live fibers, not counting the new one,
    already number at least [k], the workers started so far, and never
    more than [workers].  Traffic that never overlaps therefore runs on
    one domain; an idle domain slows every minor GC (DESIGN.md §7). *)

(** [create ?workers ?name ()] — a pool of up to [workers] domains
    (default {!Executor.default_workers}); none starts before the
    first {!submit}. *)
val create : ?workers:int -> ?name:string -> unit -> t

val name : t -> string

(** Start a worker if the rule above asks for one, then queue [job].
    @raise Closed after {!shutdown}, having started nothing. *)
val submit : t -> (unit -> unit) -> unit

(** Close the injector, drain, finish in-flight fibers, join the
    domains.  Idempotent. *)
val shutdown : t -> unit

val stats : t -> stats

(** [Printexc.to_string] of the most recent non-fatal fiber error. *)
val last_error : t -> string option

(** {2 Engine mode}

    The scheduler as a hand-advanced value, mirroring
    {!Executor.Engine}: [make_engine] seeds the sources' fibers onto the
    deques without spawning domains, and [try_advance] runs one
    scheduling step.  [Nd_check.Explore] drives this from a
    single-domain controlled scheduler; with no domain registered as a
    worker, every hand-off routes through the synchronized injector,
    so a schedule (plus the seed) fully determines the run. *)

val make_engine :
  ?workers:int ->
  ?grain:int ->
  ?tracer:Nd_trace.Collector.t ->
  Nd.Program.t ->
  t

val n_workers : t -> int

val remaining : t -> int

val finished : t -> bool

(** Every live fiber is parked and every queue is empty: no step can
    make progress, ever.  Exact under the single-domain explorer. *)
val stalled : t -> bool

(** [try_advance t wid] — one scheduling step for worker [wid]: pop own
    deque, else steal, else take from the injector; runs the fiber
    slice on success.  [false] when nothing was runnable. *)
val try_advance : t -> int -> bool

(** {2 Test-only hooks}

    Verification seams for the conformance harness; never set in
    production code (mirrors {!Deque.Hooks}). *)
module Hooks : sig
  (** Preemption callback invoked between the load and the store of
      the promise park ("await-park") and take ("fulfill-take")
      transitions — the explorer performs an effect there to schedule
      around the exact windows where a lost wake-up could hide. *)
  val set_yield : (string -> unit) option -> unit

  (** [set_lost_wakeup true] replaces the park's compare-and-set with a
      blind store, re-introducing the classic lost-wakeup bug: a
      fulfill racing into the window is overwritten and the fiber
      parks forever.  Exists solely so the mutation smoke test can
      prove the explorer detects this bug class. *)
  val set_lost_wakeup : bool -> unit

  (** [set_stall_window (Some f)] runs [f] inside {!stalled}, after it
      has sampled the live-fiber count and before it compares the
      parked count against it — the window where a fiber finishing
      concurrently once produced a false [Deadlock {blocked = 0}].  The
      regression test finishes the last fiber from [f]. *)
  val set_stall_window : (unit -> unit) option -> unit
end
