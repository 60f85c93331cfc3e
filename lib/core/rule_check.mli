(** Fire-rule diagnosis: explain determinacy races in rule-set terms.

    When [Nd_analyze.Esp_bags] finds an unordered conflicting strand
    pair, the actionable question is {e which fire construct should have
    ordered them, and with which pedigrees}.  {!lift} takes each race to
    the lowest common ancestor of the two strands in the spawn tree and
    reports their pedigrees relative to it — if the LCA is a fire node,
    the fix is a rule [+p ⇝ -q] (or a refinement of one) in that fire's
    rule set; if it is a par node, the parallelism itself is unsound.

    This is the tool that located every correction catalogued in
    DESIGN.md (the paper's MT, VH, ABAB and MM sets). *)

type finding = {
  race : Nd_dag.Race.race;
  lca : Program.node_id;
  lca_kind : Program.kind;
  src_pedigree : Pedigree.t;  (** LCA -> the earlier-in-DFS strand *)
  dst_pedigree : Pedigree.t;  (** LCA -> the later-in-DFS strand *)
}

(** [lift program race] — the finding for one race between two vertices
    of [Program.dag program]: the spawn-tree LCA of their owning nodes,
    its kind, and the pedigree from the LCA down to each of them. *)
val lift : Program.t -> Nd_dag.Race.race -> finding

val pp_finding : Program.t -> Format.formatter -> finding -> unit
