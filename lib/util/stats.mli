(** Small statistics toolkit for the experiment harness: summary statistics
    and least-squares fits used to recover asymptotic growth exponents from
    measured spans, cache complexities and simulated running times. *)

val mean : float list -> float

(** [power_fit xs ys] fits [y = c * x^e] by linear regression in log-log
    space and returns [(e, c, r2)].  Points with non-positive coordinates
    are rejected with [Invalid_argument]. *)
val power_fit : float list -> float list -> float * float * float

(** [spread l] is [max l /. min l] — flatness measure of a list of
    ratios [y /. f x] of a measured quantity to a claimed growth [f].
    @raise Invalid_argument on an empty list or non-positive minimum. *)
val spread : float list -> float
