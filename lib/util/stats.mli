(** Least-squares fits for the experiment harness and lint, used to
    recover asymptotic growth exponents from measured spans, cache
    complexities and simulated running times. *)

(** [power_fit xs ys] fits [y = c * x^e] by linear regression in log-log
    space and returns [(e, c, r2)].  Points with non-positive coordinates
    are rejected with [Invalid_argument]. *)
val power_fit : float list -> float list -> float * float * float
