(** Multicore executors for compiled ND programs, on OCaml 5 domains.

    {!run_dataflow} is the ND runtime: the algorithm DAG's dependency
    counters drive execution directly — a worker that completes a strand
    decrements its successors and pushes the newly enabled ones onto its
    own Chase–Lev deque, stealing when empty.  The hot path runs on the
    DAG's flat CSR adjacency ({!Nd_dag.Dag.csr}): the wake-up loop is an
    int-array scan with no allocation, and targets with a single
    predecessor skip the atomic decrement entirely.  Fire-construct
    parallelism is therefore exploited exactly as the DRS exposes it.

    {!run_fork_join} is the NP runtime: a classic fork–join traversal of
    the program's spawn tree (fires treated as serial compositions), with
    help-first joins.  Comparing the two on the same workload is
    experiment E9.

    Both executors accept a [grain]: subtrees of the program tree whose
    total work is at most [grain] are executed serially by one worker
    (in tree order, which is a valid topological order of any subtree's
    sub-DAG), eliminating per-vertex scheduling overhead below the
    threshold.  For the dataflow executor this contracts the DAG into a
    coarse task graph once per run; [grain = 0] (the default) keeps
    vertex granularity.  Correctness is unaffected: coarsening only ever
    adds serialization.

    Correctness requires the program's DAG to be determinacy-race free
    (verified by {!Nd_dag.Race} in the test suite); then every execution
    computes the same result as {!Nd.Serial_exec.run}. *)

(** [run_dataflow ?workers ?grain ?tracer program] executes all strand
    actions in dependency order on [workers] domains (default:
    {!default_workers}).  With [tracer] (use
    {!Nd_trace.Collector.wallclock} with [~workers:nw] rings), emits
    strand begin/end, fire, spawn and steal events at wall-clock
    nanosecond timestamps; each domain writes only its own ring, so
    tracing needs no synchronization and the untraced path costs one
    branch per instrumentation point.  Strand events always carry real
    DAG vertex ids, also under coarsening (coarse tasks emit one
    interval per contained leaf).  A raising strand stops every worker
    and its exception is re-raised (see {!crew}). *)
val run_dataflow :
  ?workers:int ->
  ?grain:int ->
  ?tracer:Nd_trace.Collector.t ->
  Nd.Program.t ->
  unit

(** [run_fork_join ?workers ?grain ?tracer program] executes the NP
    projection of the spawn tree with nested fork–join parallelism.  The
    fire constructs are treated as serial compositions, so this is
    exactly the paper's NP baseline executed for real.  Strand events
    carry the leaf's DAG vertex id; steal events carry no vertex (jobs
    are subtrees, not vertices).  Idle workers back off with capped
    exponential [cpu_relax] pauses escalating to short sleeps.  A
    raising strand stops every worker, including one blocked in a join
    on it, and its exception is re-raised (see {!crew}). *)
val run_fork_join :
  ?workers:int ->
  ?grain:int ->
  ?tracer:Nd_trace.Collector.t ->
  Nd.Program.t ->
  unit

(** [default_workers ()] — the worker count used when [?workers] is
    omitted: the [NDSIM_WORKERS] environment variable when set to a
    positive integer, otherwise [Domain.recommended_domain_count]
    capped at 8. *)
val default_workers : unit -> int

(** [parallel_for ?workers n f] runs [f wid i] for every [i] in
    [0 .. n-1] across [min n workers] domains (default
    {!default_workers}).  Iterations are claimed dynamically off a
    shared atomic counter, so wildly uneven iteration costs still
    balance; [wid] is the worker index in [0 .. workers-1] for
    per-worker state such as trace rings.  [f] must be safe to call
    concurrently for distinct [i].  If an iteration raises, remaining
    unclaimed iterations are abandoned and the first exception is
    re-raised (with its backtrace) after all workers stop; iterations
    already claimed by other workers run to completion first, so an
    observer never sees a half-executed iteration.  Calls nest: [f] may
    itself call [parallel_for] (the workers come from {!crew}, which
    spawns a helper rather than wait for a busy one), and an inner
    exception unwinds through every level. *)
val parallel_for : ?workers:int -> int -> (int -> int -> unit) -> unit

(** [crew ?keep nw body] runs one call on [nw] workers: [body stopped]
    is applied once, on the caller, and the function it returns runs
    as worker [0] on the caller and as workers [1 .. nw-1] on helper
    domains borrowed for the call; [crew] returns once every worker has
    returned.  When a worker raises, [stopped ()] turns true for the
    others, which must then return (or raise) promptly, and the first
    exception is re-raised with its backtrace; a worker's loop that
    waits on other workers must poll [stopped].  With [nw <= 1] the
    caller runs worker [0] alone and [stopped] is constantly false.

    Helpers are parked domains when one is idle and fresh spawns
    otherwise, so a nested call never waits.  A helper that has served
    a [~keep:true] call (the fiber backend: on OCaml 5.1 an exiting
    domain drops its cached fiber stacks) parks again at the end of
    every call, at most [max 1 (default_workers () - 1)] of them; any
    other helper is joined before [crew] returns.  Every runtime entry
    point ({!parallel_for}, {!run_dataflow}, {!run_fork_join},
    [Fiber_exec.run_program]) runs on it. *)
val crew :
  ?keep:bool -> int -> ((unit -> bool) -> int -> unit) -> unit

(** {2 The dataflow engine as a value}

    The dependence-counting core of {!run_dataflow}, exposed so the
    conformance harness ([Nd_check.Explore]) can advance the {e exact}
    production wake-up loop and Chase–Lev deque discipline from a
    single-domain controlled scheduler.  {!run_dataflow} itself is
    [make_engine] plus one {!crew} worker per slot looping
    [try_pop]/[try_steal] with backoff. *)
module Engine : sig
  type t

  (** Number of worker slots (= per-worker deques). *)
  val n_workers : t -> int

  (** Total schedulable tasks (DAG vertices, or coarse tasks under a
      grain). *)
  val n_tasks : t -> int

  (** Tasks not yet executed. *)
  val remaining : t -> int

  (** All tasks executed: the run is complete. *)
  val finished : t -> bool

  (** [try_pop eng wid] — worker [wid] pops its own deque; on success
      the task is executed and its newly enabled successors are pushed
      back onto [wid]'s deque (the production wake-up loop).  [false]
      when the deque was empty. *)
  val try_pop : t -> int -> bool

  (** [try_steal eng ~thief ~victim] — [thief] steals from [victim]'s
      deque and, on success, executes the task as {!try_pop} does.
      [false] when the victim looked empty or the race was lost. *)
  val try_steal : t -> thief:int -> victim:int -> bool
end

(** [make_engine ?workers ?grain ?tracer program] builds the dataflow
    engine — counters initialized, sources seeded round-robin onto the
    deques — without running anything.  Each task must then be executed
    by exactly one worker via {!Engine.try_pop}/{!Engine.try_steal}
    until {!Engine.finished}. *)
val make_engine :
  ?workers:int ->
  ?grain:int ->
  ?tracer:Nd_trace.Collector.t ->
  Nd.Program.t ->
  Engine.t

(** {2 Backend plumbing}

    Shared between this module's two executors and {!Fiber_exec}, so
    every backend schedules the same tasks, honours [grain]
    identically, and emits identical strand/steal trace events. *)

(** The compiled, backend-neutral view of one run: [tg_tasks] tasks
    (DAG vertices at [grain = 0], coarse tasks otherwise) whose
    dependencies are the CSR [tg_succ_off]/[tg_succ_tgt] with
    in-degrees [tg_indeg], and [tg_exec wid t] executing task [t] on
    worker [wid].  [tg_steal_vertex t] is the representative DAG vertex
    for steal trace events ([None] for coarse leaf-range tasks).
    [tg_indeg] may be shared with the program's cached CSR — treat it
    as read-only. *)
type task_graph = {
  tg_tasks : int;
  tg_succ_off : int array;
  tg_succ_tgt : int array;
  tg_indeg : int array;
  tg_exec : int -> int -> unit;
  tg_steal_vertex : int -> int option;
}

(** [task_graph ?grain ?tracer program] compiles [program] to the task
    graph every backend runs: grain coarsening (or the raw DAG CSR)
    plus the tracing-aware strand execution closure. *)
val task_graph :
  ?grain:int -> ?tracer:Nd_trace.Collector.t -> Nd.Program.t -> task_graph

(** [spin_cap ~nw] — failed-sweep count at which an idle worker's
    backoff escalates from [cpu_relax] bursts to short sleeps; nearly
    immediate when [nw] oversubscribes the machine.  Exposed for
    backends implemented outside this module. *)
val spin_cap : nw:int -> int

(** [backoff ~spin_cap spin] — one step of the shared idle-loop backoff
    policy: increments [spin] and either spins with [cpu_relax] bursts
    or sleeps (capped at 1ms) once past [spin_cap].  Reset [spin] to 0
    on any successful dequeue. *)
val backoff : spin_cap:int -> int ref -> unit
