(** Sets of integers represented as sorted, disjoint, half-open intervals
    [\[lo, hi)].  Used throughout the library to represent memory footprints
    over a flat global address space: footprint unions, cardinalities and
    difference cardinalities are the primitive operations behind task sizes
    [s(t)], the PCC metric [Q*] and the scheduler's miss accounting.

    Representation: one immutable [int array] in one of two layouts.  The
    plain layout is [\[| lo0; hi0; lo1; hi1; … |\]] with [lo0 < hi0 <
    lo1 < hi1 < …] (sorted, disjoint, non-adjacent, no empty piece), one
    heap block of [2k + 1] words for [k] intervals.  A {e run} is [c]
    intervals of one width at one stride, [\[lo + i·s, hi + i·s)] for
    [i < c]; the run layout is [\[| 0; lo; hi; s; c; … |\]], one 4-int
    piece a run, so the footprint of a b×b block of a row-major matrix
    costs 6 words instead of [2b + 1].  A set is cut from left to right
    into maximal runs (the greedy split) and takes the run layout exactly
    when that is shorter, [1 + 4·runs < 2k]; sets of one or two intervals
    are always plain.  Every constructor and operation returns this
    form, so equal sets are equal arrays ({!equal} is [=]).

    Costs below are for sets of [k] and [k'] intervals.  The binary
    operations keep no state between calls, so any number of domains and
    threads may call them at once, and may return an operand unchanged
    when the other is empty.  On two sets whose spans do not overlap,
    [inter] and [diff] answer in O(1) and [absorb] counts
    without a sweep.  They allocate nothing in the major heap but their
    result: operands that expand together to at most 256 words are
    swept as plain copies that die in the minor heap, and larger ones
    are read in place. *)

type t

val empty : t

(** O(1). *)
val is_empty : t -> bool

(** [interval lo hi] is the half-open interval [\[lo, hi)].
    @raise Invalid_argument if [lo > hi]. *)
val interval : int -> int -> t

(** [strided ~lo ~width ~stride ~count] is the run [\[lo + i·stride,
    lo + i·stride + width)] for [i < count], e.g. the footprint of a
    row-major block, built straight into its canonical layout: one
    interval when [count = 1] or [stride = width], plain when
    [count = 2], one run otherwise; empty when [width] or [count] is 0.
    O(1).
    @raise Invalid_argument if [width] or [count] is negative or
    [stride < width]. *)
val strided : lo:int -> width:int -> stride:int -> count:int -> t

(** [of_intervals l] is the union of the given [(lo, hi)] half-open
    intervals, which may overlap and come in any order; pairs with
    [lo >= hi] are empty and ignored.  O(n log n) for [n] pairs. *)
val of_intervals : (int * int) list -> t

(** [shift t d] translates every element by [d]; O(k).  Translation
    preserves the canonical form.  Used to compare footprints of subtrees
    up to translation when memoizing structural cost analysis per subtree
    shape. *)
val shift : t -> int -> t

(** O(k + k'). *)
val union : t -> t -> t

(** O(k + k'). *)
val inter : t -> t -> t

(** [diff a b] is the set of elements of [a] not in [b]; O(k + k'). *)
val diff : t -> t -> t

(** Binary search over intervals, or over runs and then one division;
    O(log k). *)
val mem : int -> t -> bool

(** [covers t lo hi] is true iff every [x] with [lo <= x < hi] is in
    [t], so always when [lo >= hi]: one binary search, as in {!mem};
    O(log k). *)
val covers : t -> int -> int -> bool

(** [cardinal t] is the number of integers in the set; O(k), or O(runs)
    in the run layout. *)
val cardinal : t -> int

(** [iter f t] calls [f lo hi] on each interval in increasing order;
    allocates nothing. *)
val iter : (int -> int -> unit) -> t -> unit

(** [fold f t init] is [f lo_(k-1) hi_(k-1) (… (f lo0 hi0 init))], the
    intervals in increasing order; allocates nothing itself. *)
val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

(** [intervals t] returns the canonical sorted disjoint interval list;
    O(k), allocating the list.  Prefer {!iter} or {!fold} on hot paths. *)
val intervals : t -> (int * int) list

(** O(k). *)
val equal : t -> t -> bool

(** [absorb acc t] unions [t] into the mutable accumulator and returns
    how many elements of [t] were new, i.e. [cardinal (diff t !acc)].
    The count is one merge walk over [t] and the prefix of [!acc] it
    reaches, allocation-free on two plain sets of at most 256 words
    together, and [!acc] is only rebuilt (O(k + k')) when the count is
    positive.  This is the "first touch within a maximal task"
    primitive used by the PMH miss accounting. *)
val absorb : t ref -> t -> int

val pp : Format.formatter -> t -> unit
