(** Parallel Cache Complexity (PCC) — the paper's Q* metric.

    Decompose the spawn tree into M-maximal subtasks and glue nodes;
    [Q*(t; M)] is the sum of the sizes of the maximal subtasks plus a
    constant (here 1) per glue node.  It is traversal-order independent
    and is the quantity bounded by Theorem 1 (misses at level j of a PMH
    under a space-bounded scheduler are at most [Q*(t; sigma*M_j)]). *)

(** [q_star program ~m] — the PCC at cache size [m].
    @raise Invalid_argument if [m < 1]. *)
val q_star : Nd.Program.t -> m:int -> int
