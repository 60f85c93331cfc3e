(** Interval-level footprint conflict detection on bare spawn trees.

    Runs before any DAG is built: children of a [Par] node are never
    cross-ordered by the DRS, so a write/write or read/write overlap
    between two [Par] siblings (or between the two sides of a [Fire]
    whose rule set is empty, the paper's "‖") is a definite determinacy
    race, reportable from the tree alone in near-linear time.  [Fire]
    nodes with rules are deliberately not checked here — whether their
    arrows cover an overlap is exactly the question the ESP-bags pass
    ({!Esp_bags}) answers. *)

type conflict = {
  path : Nd.Pedigree.t;  (** root -> the Par (or bare-fire) node *)
  kind : string;  (** ["par"] or ["fire <type>"] (empty rule set) *)
  i : int;  (** 1-based index of the first conflicting child *)
  j : int;  (** 1-based index of the second conflicting child *)
  overlap : Nd_util.Interval_set.t;
  write_write : bool;
}

(** [check ?registry t] — all sibling conflicts, in DFS order.  With
    [registry], [Fire] nodes whose type resolves to an empty rule set
    are treated as [Par]; without it only [Par] nodes are checked. *)
val check : ?registry:Nd.Fire_rule.registry -> Nd.Spawn_tree.t -> conflict list

val pp_conflict : Format.formatter -> conflict -> unit
