(** 2-dimensional Floyd–Warshall (all-pairs shortest paths) via the
    cache-oblivious Gaussian-elimination paradigm, in the ND model.

    The recursion uses the four classic task types: [A] (diagonal block,
    self-dependent), [B] (column panel: X <- min(X, U (x) X)), [C] (row
    panel: X <- min(X, X (x) U)) and [D] (general update
    X <- min(X, U (x) V)), all over the min-plus semiring.

    The key structural observation (which the paper leaves as "a
    straightforward extension"): [B] has exactly the spawn-tree shape of
    the left triangular solve, [C] of the right solve, and [D] of the
    2-way matmul — so the "TM"/"MT"/"2TM2T", "TM1"/"MTR"/"2TMR2T" and
    "MM" fire types apply verbatim and give the panels their full
    wavefront parallelism.  The six-stage composition inside [A] is kept
    serial (the paper gives no rules for it), so the measured ND span is
    Θ(n log n) against Θ(n log² n) for NP — see EXPERIMENTS.md. *)

(** [workload ~n ~base ~seed ()] — random positive distance matrix;
    [check] compares against the classic O(n^3) Floyd–Warshall (exact:
    min-plus is order-insensitive). *)
val workload : n:int -> base:int -> seed:int -> unit -> Workload.t
