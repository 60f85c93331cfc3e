(** LU factorization with partial pivoting (Section 3): Toledo's 2-way
    divide-and-conquer recursion over column panels, with the ND TRS and
    the fire-based matmul as its building blocks.

    The paper gives no dedicated fire rules for LU — the stated result
    ("a straightforward parallelization of Toledo's algorithm combined
    with a replacement of the TRS algorithm by our new ND TRS") composes
    the pivoted panel chain serially and draws the ND benefit from the
    TRS and update steps; we implement exactly that, so the NP/ND gap for
    LU comes from the fires {e inside} TRS and MMS. *)

(** [workload ~n ~base ~seed ()] — factorize a random well-conditioned
    matrix; [check] compares both the packed factors and the pivot vector
    against the serial reference. *)
val workload : n:int -> base:int -> seed:int -> unit -> Workload.t
