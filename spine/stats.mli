(** Exact order statistics over raw samples.

    Nothing here buckets: every percentile is read off the sorted sample
    array, so a 10% regression bound is never smaller than the
    quantisation error of the statistic that checks it. *)

(** A sorted copy. *)
val sorted : float array -> float array

(** [percentile a q] for [q] in [\[0, 1\]]: linear interpolation between
    the two closest ranks of the sorted samples (rank [q * (n - 1)]).
    @raise Invalid_argument on an empty array or [q] out of range. *)
val percentile : float array -> float -> float

(** [percentile_sorted s q] — {!percentile} on an already sorted array. *)
val percentile_sorted : float array -> float -> float

val median : float array -> float

(** [quartiles a] = [(q1, median, q3)] exactly as Python's
    [statistics.quantiles(a, n=4)] computes them (its default
    ["exclusive"] method); a single sample is its own quartiles.
    @raise Invalid_argument on an empty array. *)
val quartiles : float array -> float * float * float

(** [spread a] — the interquartile distance as a share of the median,
    [(q3 - q1) / |median|]. *)
val spread : float array -> float
