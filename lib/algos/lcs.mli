(** Longest Common Subsequence in the ND model (Section 3, Eq. 17 and
    Figure 11).

    The DP table quadrants compose as

    [(X00 ⇝HV (X01 ‖ X10)) ⇝VH X11]

    with the recursive boundary-propagation rules "⇝H" (left block fires
    the block to its right) and "⇝V" (top fires bottom).  The ND span is
    O(n); serializing the fires gives the NP spawn tree of Figure 1. *)

(** [workload ?variant ~n ~base ~seed ()] — LCS of two random sequences
    of length [n] over a 4-letter alphabet; [check] compares the full DP
    table, row 0 and column 0 included, with the serial reference
    (exact: integer-valued).  It stores no reference: it draws the
    sequences again from [seed], compares them with the operand cells,
    and recomputes the reference DP one row at a time, comparing each
    row as it goes, so the workload holds O(n) words of reference.
    Its matrix space is sized exactly, (n+1)² + 2n words.
    [`Literal] uses the paper's printed "VH" pedigrees, which the race
    detector rejects (see DESIGN.md). *)
val workload :
  ?variant:[ `Corrected | `Literal ] -> n:int -> base:int -> seed:int ->
  unit -> Workload.t

(** [workload_with_operands] is {!workload} together with its DP table
    [x] ((n+1) × (n+1)) and its two sequences [s] and [t] (1 × n each),
    the operands a {!Workload.t} keeps hidden, for tests that corrupt
    them and expect [check] to notice. *)
val workload_with_operands :
  ?variant:[ `Corrected | `Literal ] -> n:int -> base:int -> seed:int ->
  unit -> Workload.t * Mat.t * Mat.t * Mat.t
