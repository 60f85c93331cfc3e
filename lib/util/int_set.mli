(** Mutable sets of non-negative ints on one flat [int array].

    Open addressing with linear probing: a member is stored in place, so
    an insert allocates nothing (until the table doubles) and a probe is
    a multiply, a shift and a few adjacent array reads.  This is the
    dedup table for hot loops over packed integer keys — e.g. the DRS
    walk's [(a·nodes + b)·rules + r] visited arrows, those with an
    internal end — where a
    polymorphic [Hashtbl] would box every key and allocate a bucket per
    entry.  Keys must be [>= 0]: [-1] marks an empty slot. *)

type t

(** [create n] — an empty set with room for [n] members before its
    first doubling ([n <= 0] is fine). *)
val create : int -> t

(** [add t k] inserts [k]; [true] iff it was not already a member.
    @raise Invalid_argument if [k < 0]. *)
val add : t -> int -> bool

(** @raise Invalid_argument if [k < 0]. *)
val mem : t -> int -> bool

val cardinal : t -> int
