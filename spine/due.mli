(** Open-loop due-time accounting.

    An open-loop generator sends request [k] of a phase at the time it
    is {e due}, [start + k / rate], whatever happened to earlier
    requests.  Its latency is measured from that due time, not from
    when the bytes left: if a stalled reply (or a generator that fell
    behind) delays later sends, the wait shows up in those requests'
    latencies instead of silently thinning the load. *)

(** [due_ns ~start_ns ~rate k] — when request [k] (from 0) of a phase
    at [rate] requests/s starting at [start_ns] is due. *)
val due_ns : start_ns:int -> rate:float -> int -> int

(** The requests of one connection still waiting for their reply. *)
type 'a t

val create : unit -> 'a t

(** [sent t ~id ~due_ns ~sent_ns tag] — request [id] went out at
    [sent_ns]; it was due at [due_ns]. *)
val sent : 'a t -> id:int -> due_ns:int -> sent_ns:int -> 'a -> unit

type 'a reply = {
  latency_ns : int;  (** reply time minus due time *)
  late_ns : int;  (** how late the generator sent it: sent minus due *)
  wire_ns : int;  (** reply time minus sent time *)
  tag : 'a;
}

(** [answered t ~id ~now_ns] — the reply to [id] arrived at [now_ns];
    [None] for an id that is not outstanding (unknown or answered
    twice). *)
val answered : 'a t -> id:int -> now_ns:int -> 'a reply option

val outstanding : 'a t -> int
