(** Dense matrices over a flat global address space.

    Every algorithm instance allocates its operands from a {!space}.  A
    matrix is a (possibly strided) rectangular view; [region] renders the
    view as an interval set over the space's addresses, which is what
    strands use as footprints.  The same space carries a float backing
    store so the strand actions can perform the real computation — the
    address of a cell in the footprint is its index in the store. *)

type space

(** [create_space ?words ()] is an empty space with room for [words]
    addresses (default 64) before it first grows.  The room is not
    written: {!alloc} zeroes each region it hands out, and a space
    sized to what its matrices take never grows, so no word of it goes
    unused. *)
val create_space : ?words:int -> unit -> space

(** [words space] is the number of allocated addresses. *)
val words : space -> int

type t = { space : space; base : int; rows : int; cols : int; stride : int }

(** [alloc space ~rows ~cols] allocates a fresh row-major matrix
    (contiguous: stride = cols), zero-initialized. *)
val alloc : space -> rows:int -> cols:int -> t

(** [sub m ~r0 ~c0 ~rows ~cols] is a view; no copy.
    @raise Invalid_argument when out of bounds. *)
val sub : t -> r0:int -> c0:int -> rows:int -> cols:int -> t

(** [quad m qr qc] is one of the four quadrants ([qr], [qc] in {0, 1});
    requires even dimensions. *)
val quad : t -> int -> int -> t

(** Row halves [top]/[bot] (for tall recursions); require even rows. *)
val top : t -> t

val bot : t -> t

(** [region m] is the footprint of the view: its rows as one strided run
    ({!Nd_util.Interval_set.strided}), a single interval when the view
    is contiguous. *)
val region : t -> Nd_util.Interval_set.t

(** [data m] is the float store behind [m]'s space: cell (i, j) is
    [(data m).(addr m i j)].  It stays valid until the space grows: an
    {!alloc} on the same space may move the store, so fetch it again
    after one.  Loops that read it directly pass no float through a
    call, so they box none (calls into this module are not inlined under
    [-opaque]). *)
val data : t -> float array

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

(** [addr m i j] is the global address of cell (i, j). *)
val addr : t -> int -> int -> int

(** [fill m f] sets every cell to [f i j]. *)
val fill : t -> (int -> int -> float) -> unit

(** [copy_contents ~src ~dst] copies cell-wise; shapes must match. *)
val copy_contents : src:t -> dst:t -> unit

(** [deviation x y] is [|x - y|], or [infinity] when [x] or [y] is NaN:
    a NaN cell is as wrong as a cell can be. *)
val deviation : float -> float -> float

(** [max_abs_diff a b] is the max of {!deviation} over the cells, so a
    NaN on either side makes it [infinity]; shapes must match. *)
val max_abs_diff : t -> t -> float

(** [snapshot m] materializes the view into a fresh space (detached copy),
    useful for saving inputs before an in-place run. *)
val snapshot : t -> t

val pp : Format.formatter -> t -> unit

(** [max_abs_diff_lower a b] like {!max_abs_diff} but restricted to the
    lower triangle including the diagonal (for in-place factorizations
    that leave the strict upper triangle unspecified). *)
val max_abs_diff_lower : t -> t -> float
