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
    disjoint same-level caches — evolve independently (DESIGN.md §13),
    and each cache's access sequence is the per-cache subsequence of
    the recorded order, which any partition of the (level, cache) pairs
    preserves.  So replay at every worker count produces the same miss
    table, and the same as an interleaved pass over word-at-a-time LRU
    lists ([test/lru_ref.ml]); the differential harness in [test_mem]
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

(** [replay ~workers ~machine trace] — the (level, cache) pairs are
    partitioned into at most [max 1 workers] shards with
    {!Nd_pmh.Pmh.shard_pairs}, each shard is simulated with private
    simulators on [Executor.parallel_for ~workers] (one shard runs on
    the caller), and the shard tables fold through the
    partition-checked {!Miss_table.merge_exclusive} and
    {!Miss_table.assert_complete} (so a dropped or double-counted shard
    raises rather than mis-counting).  The result is the same table at
    every worker count. *)
val replay : workers:int -> machine:Nd_pmh.Pmh.t -> Trace.t -> Miss_table.t
