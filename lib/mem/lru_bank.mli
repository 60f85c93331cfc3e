(** The inclusive per-cache LRU miss model of a PMH: one {!Cache_sim}
    per cache instance, every level at once.

    A processor's strand touches its footprint at each cache on its path
    to memory; every cache sees the interleaved streams of the
    processors below it, so shared levels pay for the contention between
    them.  This is the model the vertex-level schedulers (ws, pdf, tree)
    and the space-bounded scheduler's [Lru] accounting all charge, so
    their miss columns are comparable.  [test_mem] tests it against an
    interleaved pass over word-at-a-time LRU lists ([test/lru_ref.ml]). *)

type t

(** [create machine] — empty caches, zero counts. *)
val create : Nd_pmh.Pmh.t -> t

(** [charge t ~proc fp] touches [fp] (in address order) at every level of
    [proc]'s cache path and returns the cost of the misses it took,
    summed over levels. *)
val charge : t -> proc:int -> Nd_util.Interval_set.t -> int

(** Live per-level miss totals, index [j-1] = level [j]; read-only. *)
val misses : t -> int array

(** Total miss cost charged so far. *)
val miss_cost : t -> int

(** Snapshot of the per-(level, cache) miss counts. *)
val miss_table : t -> Miss_table.t
