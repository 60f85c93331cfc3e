(** Divide-and-conquer matrix multiplication in the ND model (Section 2 of
    the paper).

    The 2-way algorithm splits the inner dimension in half and composes the
    two halves — which accumulate into the same C quadrants — with the
    "⇝MM" fire construct.  Two rule sets are provided:

    - [Literal]: the paper's printed rules
      [{ +<1> ⇝MM -<1>, +<2> ⇝MM -<2> }].  Our race detector shows these
      leave the pair (source's second half, sink's first half) unordered
      even though both accumulate into every C quadrant (see DESIGN.md).
    - [Safe] (default): adds [+<2> ⇝MM -<1>], which totally orders the
      contributions to each quadrant chain; the DAG is determinacy-race
      free and the span matches the O(n) the paper quotes for MMS.

    Also provides the 8-way nested-parallel algorithm with temporaries
    (footnote 2 of the paper: O(log^2 n) span, O(n^3) space), used as an
    NP baseline in the experiments. *)

type variant = Literal | Safe

(** [registry ~variant] defines fire type ["MM"]. *)
val registry : variant:variant -> Nd.Fire_rule.registry

(** [mm_tree ~variant ~sign ~base c a b] is the spawn tree computing
    [c += sign * a*b].  All matrices square with power-of-two dimension;
    recursion stops at [base].  Reused by TRS / Cholesky / LU as their
    update step (the paper's MMS is [~sign:(-1.)]). *)
val mm_tree :
  variant:variant -> sign:float -> base:int -> Mat.t -> Mat.t -> Mat.t ->
  Nd.Spawn_tree.t

(** [mm_nt_tree ~variant ~sign ~base c a b] computes [c += sign * a*b^T]
    with the same fire structure (used by Cholesky's symmetric update). *)
val mm_nt_tree :
  variant:variant -> sign:float -> base:int -> Mat.t -> Mat.t -> Mat.t ->
  Nd.Spawn_tree.t

(** [workload ?variant ~n ~base ~seed ()] packages [C = A*B] with fresh
    operands. *)
val workload :
  ?variant:variant -> n:int -> base:int -> seed:int -> unit -> Workload.t

(** [workload8 ~n ~base ~seed ()] packages the 8-way NP algorithm: all
    eight quadrant products run in parallel, the four second-half
    products go to temporaries (zeroed by [reset]), and a parallel
    add-tree folds them in. *)
val workload8 : n:int -> base:int -> seed:int -> unit -> Workload.t
