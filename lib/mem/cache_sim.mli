(** Serial ideal-cache simulator: a fully associative LRU cache of [m]
    words (unit cache lines, matching the paper's B = 1 simplification).

    Used to measure Q_1 — the cache complexity of the depth-first
    traversal in the ideal cache model [Frigo et al.] — as a cross-check
    on the PCC metric: for the paper's algorithms the two agree within
    constant factors (the data reuse across M-maximal subtasks that Q*
    ignores is a lower-order term; Section 4).  {!Lru_bank} builds the
    PMH's inclusive per-cache model from one of these per cache.

    Residency is tracked as footprint segments, each a run of addresses
    whose recency stamps rise with the address, with whole hit/miss runs
    processed per index operation.  Segments sit in slots of growable
    int arrays; a splay tree over the slots orders them by address, and
    a doubly-linked list through the same slots orders them by recency,
    oldest first, so its head is the next victim.  An access costs
    amortized O(r log s) for r hit/miss runs over s resident segments,
    independent of footprint width.  It allocates O(1) words: the arrays
    grow by doubling, to about [2m] slots at most, and vacated slots are
    reused.

    Miss counts are bit-identical to a word-at-a-time LRU list, the
    reference [test/lru_ref.ml] keeps; [test_mem] compares the two on
    hand, random and workload traces. *)

type t

(** [create ~m ()] — an empty LRU cache of capacity [m] words.
    @raise Invalid_argument if [m < 1]. *)
val create : m:int -> unit -> t

(** [access_set t fp] touches every word of a footprint (in address
    order) and returns the number of misses. *)
val access_set : t -> Nd_util.Interval_set.t -> int

val misses : t -> int

(** [validate t] checks the internal invariants: resident segments are
    non-empty, disjoint and in address order; occupancy equals their
    total length and is at most [m]; the recency list holds exactly
    those segments, in increasing, disjoint stamp ranges; and every slot
    handed out is either live or free.  A test aid, O(slots).
    @raise Failure naming the first broken invariant. *)
val validate : t -> unit

(** [q1 program ~m] — misses of the depth-first (serial-elision)
    traversal of the program: every strand touches its footprint once. *)
val q1 : Nd.Program.t -> m:int -> int
