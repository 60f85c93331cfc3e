(** In-memory spans recorded around the benchmark's calls into the
    libraries.

    A span is [(name, start, end, parent, op)]: [name] is
    [<layer>.<what>] (e.g. ["core.compile"], ["sched.ws"]), [parent] is
    the span that was open on the same thread when it started, and [op]
    groups every span of one benchmark operation (a pipeline instance,
    an exec round, a served request).  Recording is off until {!enable};
    when off, {!with_} is one branch around the call.

    Per-name totals (count, inclusive time, self time) are kept exactly
    for every span.  The spans themselves are kept up to a cap, for the
    Chrome/Perfetto file written by {!write_chrome}.  Safe to call from
    several threads. *)

(** [enable ()] turns recording on, with nothing recorded yet, and
    returns the mean cost of recording one span, measured on the spot
    (ns). *)
val enable : unit -> float

val enabled : unit -> bool

(** Monotonic clock, nanoseconds. *)
val now_ns : unit -> int

(** [with_ ?op name f] runs [f ()] inside a span (re-raising its
    exceptions after closing the span). *)
val with_ : ?op:int -> string -> (unit -> 'a) -> 'a

(** [record ?op name ~start_ns ~stop_ns] adds a span measured by the
    caller (e.g. a request timed from send to reply), as a child of the
    span open on the calling thread, if any. *)
val record : ?op:int -> string -> start_ns:int -> stop_ns:int -> unit

type total = {
  count : int;
  total_ns : int;  (** inclusive duration, summed *)
  self_ns : int;  (** duration not covered by child spans, summed *)
}

(** [total name] — zero counts when no such span was recorded. *)
val total : string -> total

(** Number of spans recorded (kept or not). *)
val count : unit -> int

(** The per-layer self-time table: one row per layer (the text of a
    span name before its first dot) and one per span name. *)
val pp_self_times : Format.formatter -> unit -> unit

(** Chrome/Perfetto [trace_event] JSON of the kept spans: one complete
    ("X") event each, [args] carrying [id], [parent] and [op]. *)
val write_chrome : string -> unit
