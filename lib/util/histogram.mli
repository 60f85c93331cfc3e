(** Log-bucketed latency histograms, mergeable across workers.

    Values are non-negative integers (the server records nanoseconds).
    Buckets follow the HdrHistogram layout: values below 16 are exact;
    above that, each power-of-two range is split into 16 linear
    sub-buckets, so any recorded value is reconstructed with a relative
    error below 1/16 (6.25%).  The whole structure is a
    flat int array: {!record} is a couple of shifts and one increment,
    and {!merge} is element-wise addition.

    Thread-safety: a bare histogram must be {e written} by one thread
    at a time, and readers must not overlap writers — {!record}
    mutates counts/n/total/min/max non-atomically, so an unsynchronized
    reader can observe [count] inconsistent with the bucket counts and
    {!percentile} walks garbage.  Cross-domain slots belong behind
    {!Sync}, which guards every operation with a per-histogram mutex
    and hands readers a private {!copy}. *)

type t

val create : unit -> t

(** [record t v] adds one observation ([v < 0] is clamped to 0). *)
val record : t -> int -> unit

val count : t -> int

(** Sum / min / max of the recorded values ([min] is 0 when empty). *)
val sum : t -> int

val min_value : t -> int

val max_value : t -> int

(** [percentile t q] for [q] in [0..1]: an upper bound for the value at
    rank [ceil (q * count)], exact below 16 and within one
    sub-bucket above.  0 when empty. *)
val percentile : t -> float -> int

(** [merge ~into src] adds [src]'s counts into [into]. *)
val merge : into:t -> t -> unit

val copy : t -> t

val clear : t -> unit

(** Sum of all bucket counts.  Equals {!count} on any histogram built
    without data races — the stats endpoint asserts exactly this. *)
val bucket_total : t -> int

(** [{"count";"bucket_total";"sum";"min";"mean";"p50";"p90";"p95";
    "p99";"max"}] summary object (values in the recorded unit).
    [bucket_total] always equals [count] for a race-free histogram. *)
val to_json : t -> Json.t

(** Mutex-guarded histogram for slots written by several threads or
    domains while another reads them (the server's per-kind latency
    histograms, recorded by reader threads and pool fibers alike).
    [record] locks per call — a couple of shifts plus a briefly held
    lock, still cheap enough for the request path; readers take a
    consistent {!copy} under the same lock. *)
module Sync : sig
  type histogram = t

  type t

  val create : unit -> t

  val record : t -> int -> unit

  (** A private, consistent copy — safe to read lock-free. *)
  val snapshot : t -> histogram
end
