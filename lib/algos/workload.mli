(** A packaged algorithm instance: spawn tree + fire rules + concrete data.

    Workloads are what the tests, examples, benchmarks and schedulers all
    consume.  [reset] (re)fills the operands deterministically from the
    instance's seed, and most families compute the reference answer
    there with the serial kernels and store it; [check] returns the
    max-abs deviation of the operands from that reference ([infinity]
    for a NaN, see {!Mat.deviation}).  A family may instead recompute
    the reference inside [check], from the seed, without storing it
    (lcs does, a row at a time).  Either way a full round-trip is:

    [reset w; Serial_exec.run (compile w); assert (check w < tol)] *)

type t = {
  name : string;
  n : int;  (** problem size (matrix dimension / sequence length) *)
  base : int;  (** recursion base-case block size *)
  tree : Nd.Spawn_tree.t;
  registry : Nd.Fire_rule.registry;
  reset : unit -> unit;
  check : unit -> float;
}

(** Which model to compile for: [ND] keeps the fire constructs; [NP]
    serializes them (the paper's nested-parallel baseline). *)
type mode = ND | NP

val mode_name : mode -> string

(** [compile ?mode w] runs the DRS on the workload's tree ([mode] defaults
    to [ND]). *)
val compile : ?mode:mode -> t -> Nd.Program.t

(** [validate_shape ~n ~base] enforces the usual divide-and-conquer
    preconditions: both powers of two, [1 <= base <= n].
    @raise Invalid_argument otherwise. *)
val validate_shape : n:int -> base:int -> unit
