(** Space-bounded scheduler for ND programs on a PMH (Section 4).

    Discrete-event simulation of the scheduler of the paper (adapted from
    Blelloch et al. for the ND model):

    - {b Anchoring}: a ready task is anchored at the cache level with
      respect to which it is maximal (size at most [sigma * M_level]),
      on the cache above the processor that found it, and is allocated
      [g(S) = min(f, max(1, ceil(f * 3S/M)))] of that cache's free
      subclusters ({!allocation}), whose processors then work
      exclusively on it.
    - {b Boundedness}: the total size of tasks anchored at a cache never
      exceeds [sigma * M].
    - {b Readiness} (Figure 12): within an anchored level-i task, the
      level-(i-1) subtasks become ready under full fine-grained dataflow
      (an arrow is satisfied when its source strand's level-1 task
      completes); dependencies whose source lies {e outside} the anchored
      task are coarsened to the completion of the source's enclosing
      level-i maximal task in [Coarse] mode (the paper's scheduler), or
      kept fine-grained in [Fine] mode (the E7 ablation).
    - {b Miss accounting} (the paper's latency-added cost ρ): a strand
      pays [C_j] for every footprint word not previously touched inside
      its enclosing level-j maximal task instance, for every level j —
      so the per-level totals are exactly the quantities Theorem 1
      bounds by [Q*(t; sigma * M_j)].

    Strand actions are never run — this is a timing/locality simulation;
    use {!Nd.Serial_exec} or [Nd_runtime] for real execution. *)

type mode = Coarse | Fine

(** Which locality model charges the misses: [Rho] is the paper's
    latency-added cost (first touch within the enclosing maximal task at
    each level — the quantity Theorem 1 bounds); [Lru] simulates
    inclusive per-cache LRU exactly like the work-stealing baseline, for
    an apples-to-apples E6 comparison. *)
type accounting = Rho | Lru

type stats = {
  time : int;  (** makespan in cost units *)
  work : int;  (** total strand work *)
  misses : int array;  (** index j-1 = misses at cache level j *)
  miss_cost : int;  (** total miss cost summed over levels *)
  space_hwm : int;
      (** peak of (total anchored task size + sizes of running atoms) —
          the quantity the per-cache boundedness invariant caps *)
  busy : int;  (** total processor busy time *)
  n_anchors : int;  (** anchors created above level 1 *)
  n_procs : int;
  miss_table : Nd_mem.Miss_table.t option;
      (** per-(level, cache-instance) miss counts: [Some] under [Lru]
          accounting (snapshot of the inline simulators) and under
          [sim_workers] replay (the merged shard tables); [None] under
          plain [Rho], whose first-touch charges are per maximal-task
          instance, not per cache *)
}

exception Deadlock of string

(** [run ?sigma ?mode ?accounting ?sim_workers ?tracer program machine]
    simulates and returns the stats.  [sigma] defaults to 1/3 (Lemma 6).

    [sim_workers] selects the {e decoupled measurement mode}: the drive
    loop schedules under ρ costs (as in [Rho] accounting — [accounting]
    is ignored) while recording the global (processor, footprint) access
    trace in event order; afterwards the trace is replayed against
    per-cache inclusive LRU simulators by {!Nd_mem.Shard_sim.replay}
    with that many workers, and [misses]/[miss_cost]/[miss_table] are
    replaced by the replayed per-cache tables.  [time]/[busy] remain the
    ρ-cost schedule.  The replayed tables are bit-identical at every
    worker count (and to a word-exact serial replay), which the
    differential harness in [test_mem] and the oracle's sim-shard stage
    enforce.
    Inline [Lru] accounting cannot be parallelized this way because its
    miss counts feed atom durations and hence the schedule itself; on a
    1-processor machine the two coincide (atom order is then
    duration-independent) and the tests check that identity too.

    With [tracer] (one ring per simulated processor), the run emits:
    strand begin/end per executed level-1 task (the [vertex] field holds
    the spawn-tree node id), anchor create/release with level, cache,
    task and size, fire events when a task's last dependency is
    satisfied ([level] = decomposition level), and per-level cache-miss
    deltas.  Tracing is purely observational: stats are identical with
    and without it.
    @raise Deadlock if the dependency structure cannot make progress
    (indicates a cyclic or unsatisfiable rule set). *)
val run :
  ?sigma:float ->
  ?mode:mode ->
  ?accounting:accounting ->
  ?sim_workers:int ->
  ?tracer:Nd_trace.Collector.t ->
  Nd.Program.t ->
  Nd_pmh.Pmh.t ->
  stats

(** [allocation machine ~level s] is g(s) = min(f, max(1, ceil(f·3s/M))),
    with f and M the fanout and size of cache level [level]: how many
    free subclusters a task of size [s] anchored at that level is
    allotted.  The paper's g takes the floor of f·(3s/M)^α'; here α' is
    1, and the ceiling stands in for the extra subclusters the full
    scheduler provisions for worst-case allocations (DESIGN §2). *)
val allocation : Nd_pmh.Pmh.t -> level:int -> int -> int

(** [utilization s] = busy / (time * procs), or [0.] when the run had
    zero time or zero processors (no processor was ever busy). *)
val utilization : stats -> float

(** Prints the stats on one line; utilization shows as [n/a] for
    zero-time or zero-processor runs. *)
val pp_stats : Format.formatter -> stats -> unit

(** Zoo face: the paper's scheduler at its defaults (sigma = 1/3,
    [Coarse] readiness) under [Lru] accounting so misses are measured
    by the same per-cache LRU model as the other zoo members.  Both
    common knobs are no-ops (deterministic; anchoring is its own
    communication model). *)
module Shared : Scheduler.S
