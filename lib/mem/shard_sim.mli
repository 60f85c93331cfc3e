(** Sharded PMH cache simulation: replay a recorded access trace
    against per-cache LRU simulators, partitioned across domains.

    The space-bounded scheduler's drive loop cannot run its inclusive
    per-cache LRU model in parallel bit-identically, because under
    [Lru] accounting each atom's miss count feeds the atom's duration
    and thus the schedule itself.  The decoupled measurement mode
    instead schedules under the paper's ρ accounting (cost-independent
    of the LRU state), {e records} the global (processor, footprint)
    access trace in event order, and replays it here.

    Replay is embarrassingly parallel: caches at different levels — and
    disjoint same-level caches — evolve independently (DESIGN.md §10),
    and each cache's access sequence is the per-cache subsequence of
    the recorded order, which any partition of the (level, cache) pairs
    preserves.  So serial replay, sharded replay at any worker count,
    and the word-exact reference implementation all produce
    bit-identical miss tables; the differential harness in [test_mem]
    and the oracle's sim-shard stage enforce this. *)

module Trace : sig
  (** A recorded access trace: one (processor, footprint) entry per
      executed leaf strand, in simulation event order.  Stored as flat
      parallel arrays (SoA) with doubling growth. *)
  type t

  val create : unit -> t

  val length : t -> int

  val push : t -> proc:int -> Nd_util.Interval_set.t -> unit

  val proc : t -> int -> int

  val footprint : t -> int -> Nd_util.Interval_set.t
end

(** The [NDSIM_SIM_WORKERS] environment variable as a positive integer,
    if set and well-formed. *)
val env_workers : unit -> int option

(** [replay_serial ?impl ~machine trace] — the serial reference: a
    single interleaved pass over the trace with every (level, cache)
    simulator live at once.  [impl] defaults to {!Cache_sim.create}'s
    default. *)
val replay_serial :
  ?impl:Cache_sim.impl -> machine:Nd_pmh.Pmh.t -> Trace.t -> Miss_table.t

(** [replay ?impl ~workers ~machine trace] — {!replay_serial} when
    [workers <= 1]; otherwise the (level, cache) pairs are partitioned
    with {!Nd_pmh.Pmh.shard_pairs}, each shard is simulated on its own
    domain via [Executor.parallel_for] with private simulators, and the
    shard tables fold through the partition-checked
    {!Miss_table.merge_exclusive} (so a dropped or double-counted shard
    raises rather than mis-counting).  The result is bit-identical to
    {!replay_serial} at every worker count. *)
val replay :
  ?impl:Cache_sim.impl ->
  workers:int ->
  machine:Nd_pmh.Pmh.t ->
  Trace.t ->
  Miss_table.t
