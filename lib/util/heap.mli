(** Array-based binary min-heap with integer keys, used as the event
    queue of the discrete-event schedulers.  Ties are broken by insertion
    order (FIFO), which keeps simulations deterministic.

    The heap never retains a reference to a popped value: vacated array
    slots are cleared on {!pop} and the growth path does not seed unused
    slots with live entries, so values become collectable as soon as
    they leave the heap (regression-tested in [test_util]). *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

(** [push t key v] inserts [v] with priority [key]. *)
val push : 'a t -> int -> 'a -> unit

(** [pop t] removes and returns the minimum-key element [(key, v)].
    @raise Not_found when empty. *)
val pop : 'a t -> int * 'a
