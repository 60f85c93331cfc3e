(** The event collector: one bounded ring buffer per worker/processor.

    Designed so an untraced run pays exactly one branch per
    instrumentation point: every execution path takes an optional
    collector defaulting to {!null}, and [emit] on {!null} is a single
    [if] on an immutable record field.  Each worker writes only its own
    ring, so the real multicore runtime needs no synchronization; rings
    are merged and time-sorted when the trace is read back.

    When a ring fills up the {e oldest} events are overwritten (the tail
    of a long run is usually the interesting part) and the drop is
    counted; {!dropped} reports the total so exporters can flag truncated
    traces. *)

type t

(** The no-op sink: [emit] returns immediately, [events] is empty. *)
val null : t

(** [create ~workers ()] — an enabled collector with [workers] rings,
    for the simulators, which pass explicit times: {!emit_now} stamps 0,
    and {!ts_to_us} is 1 (timestamps {e are} microseconds / simulator
    cost units).  [capacity] (default [2^18]) bounds each ring.
    @raise Invalid_argument if [workers < 1] or [capacity < 1]. *)
val create : ?capacity:int -> workers:int -> unit -> t

(** [wallclock ~workers ()] — a collector for the real runtime: the clock
    is [CLOCK_MONOTONIC] nanoseconds since creation, and [ts_to_us] is
    [1e-3]. *)
val wallclock : ?capacity:int -> workers:int -> unit -> t

val enabled : t -> bool

val n_workers : t -> int

val ts_to_us : t -> float

(** [emit t ~worker ~ts kind] — record an event at an explicit timestamp.
    Events outside [0 <= worker < n_workers] are ignored.  Per-worker
    timestamps must be non-decreasing for the exporters to be valid. *)
val emit : t -> worker:int -> ts:int -> Event.kind -> unit

(** [emit_now t ~worker kind] — record at [clock ()] (real runtime). *)
val emit_now : t -> worker:int -> Event.kind -> unit

(** [events t] — all retained events merged across workers, stably sorted
    by timestamp (per-worker emission order is preserved). *)
val events : t -> Event.t list

(** [dropped t] — events lost to ring overflow. *)
val dropped : t -> int
