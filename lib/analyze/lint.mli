(** The fire-rule linter: static checks over rule registries, spawn
    trees and compiled programs.

    The rule catalogue (stable IDs; full rationale in DESIGN.md §9):

    - [ND001] {e error} — dangling fire-type reference: a rule's [via]
      target, or a fire type used by the spawn tree, is not defined in
      the registry.
    - [ND002] {e warning} — dead rule: the rule's pedigrees address
      nonexistent children at every use site reached by the rewriting
      (never resolves cleanly, never bottoms out at a leaf), so it only
      ever degrades to conservative attachment.  It reads the tallies of
      the walk compile already ran ({!Nd.Program.rule_uses}); it does
      not walk again.
    - [ND003] {e warning} — duplicate rule within a set.
    - [ND004] {e warning} — rule shadowed by a full-dependency rule with
      the same endpoints.
    - [ND005] {e error} — rule-graph cycle with no structural descent
      (every step of the cycle has empty pedigrees): the rewriting
      cannot refine such arrows; a one-type cycle degrades to a full
      edge, and a longer one emits no edge.
    - [ND006] {e warning} — fire ≡ seq: a fire node's rule set emits a
      root-to-root full edge, serializing the whole construct.
    - [ND007] {e warning} — fires recover no span: the compiled DAG's
      span equals the fully-serialized ({!Nd.Spawn_tree.serialize_fires})
      projection's, which {!Nd.Spawn_tree.np_span} folds over the tree
      without compiling the projection.
    - [ND008] {e retired} — was a tree-only check for footprint overlaps
      between [Par] siblings; ND009 reports those races.  The ID is never
      reused.
    - [ND009] {e error} — determinacy race found by the ESP-bags pass
      ({!Esp_bags}), reported with the same LCA + pedigree diagnosis as
      {!Nd.Rule_check}: its subject is the LCA's kind, ["par"] for
      [Par] siblings, [fire "E"] for the two sides of fire type [E]
      (whether [E]'s rule set is empty or misses an arrow).  It lists at
      most 16 races, {!Esp_bags.analyze}'s default limit.
    - [ND010] {e warning} — span not recovered {e asymptotically}: over
      a size sweep of compiled DAG spans, the NP/ND span ratio does not
      grow (the asymptotic version of ND007).  The NP side is the
      {!Nd.Spawn_tree.np_span} fold, not a second span pass.
    - [ND011] {e warning} — peak footprint exceeds the outermost cache
      level of a given PMH: no [tree_sched] budget below the working set
      avoids top-level misses.
    - [ND012] {e warning} — parallelism ([work/span]) below a given
      processor count: Brent's bound caps speedup at the parallelism.
    - [ND013] {e warning} — fire-rule chain of length Θ(work): span
      equals work, the construct is fully serial. *)

type severity = Error | Warning

type finding = {
  id : string;  (** ["ND001"] .. ["ND013"] *)
  severity : severity;
  subject : string;  (** rule-set name, node path, or ["program"] *)
  message : string;
}

val has_errors : finding list -> bool

(** [filter_min_severity min fs] keeps the findings at severity [min] or
    above ([Warning] keeps everything, [Error] keeps only errors) — the
    [--min-severity] filter of [ndsim lint] / [ndsim analyze]. *)
val filter_min_severity : severity -> finding list -> finding list

val pp_finding : Format.formatter -> finding -> unit

(** [to_json fs] — a JSON list of objects with fields [id], [severity]
    (["error"] or ["warning"]), [subject] and [message]. *)
val to_json : finding list -> Nd_util.Json.t

(** [lint_registry reg] — ND001 (rule targets), ND003, ND004, ND005. *)
val lint_registry : Nd.Fire_rule.registry -> finding list

(** [lint_tree reg tree] — ND001: the fire types the tree uses that
    [reg] does not define.  Never compiles. *)
val lint_tree : Nd.Fire_rule.registry -> Nd.Spawn_tree.t -> finding list

(** [lint_all ~registry tree] — the full battery.  Runs the static
    registry and tree passes first, and compiles for the program passes
    (ND002, ND006, ND007, ND009) only when they found no ND001 or ND005
    error.  Compile raises on an undefined fire type (ND001); a
    no-progress rule cycle (ND005) compiles, but its program passes are
    skipped too.  A race is a program finding, so a racy tree still
    gets its ND002, ND006 and ND007 findings. *)
val lint_all :
  registry:Nd.Fire_rule.registry -> Nd.Spawn_tree.t -> finding list

(** [lint_compiled ?verdict p] — the same battery on an already
    compiled program: the static passes over [p]'s own registry and
    tree, then the program passes when they produced no errors.
    [verdict], an {!Esp_bags.analyze} of [p] already run at the default
    limit, saves ND009 a second ESP pass (ND009 lifts it as
    {!Esp_bags.diagnose} does). *)
val lint_compiled : ?verdict:Esp_bags.verdict -> Nd.Program.t -> finding list

(** [lint_cost ?machine ?procs ~has_fires cost] — the structural checks
    over a program's {!Cost.of_program}: ND011 (peak footprint vs the
    outermost cache of [machine]), ND012 (parallelism below [procs]),
    ND013 (span ≡ work while the tree contains fires, per [has_fires]).
    Checks whose optional context is absent are skipped. *)
val lint_cost :
  ?machine:Nd_pmh.Pmh.t ->
  ?procs:int ->
  has_fires:bool ->
  Cost.t ->
  finding list

(** [lint_span_sweep ~subject ~build sizes] — ND010.  [build n] yields
    the registry and spawn tree at problem size [n]; the sweep takes
    the span of the ND tree's compiled DAG at each size
    ([Program.compile], [Dag.span]), folds the span of its
    [serialize_fires] projection ({!Nd.Spawn_tree.np_span}), and warns
    when the NP/ND span ratio does not grow (no asymptotic span
    recovery).  Trees without fires
    contribute nothing; an empty or fire-free sweep yields []. *)
val lint_span_sweep :
  subject:string ->
  build:(int -> Nd.Fire_rule.registry * Nd.Spawn_tree.t) ->
  int list ->
  finding list
