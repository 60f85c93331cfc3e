(** ESP-bags: near-linear on-the-fly determinacy-race detection.

    The exact checker ({!Nd_dag.Race}) compares all vertex pairs against
    a quadratic reachability closure and refuses programs past
    {!Nd_dag.Race.max_vertices}.  This pass finds the same verdict in
    one serial-elision DFS of the spawn tree: reader/writer {e bags}
    over completed subtrees maintained with union-find answer the
    series-parallel ordering queries (the classic SP-bags algorithm),
    and the ⇝ fire edges — which in this DRS always order one
    contiguous DFS leaf interval entirely before another
    ({!Nd.Program.n_fire_edges}) — are honored through exact per-node
    happens-before interval sets.  Shadow memory keeps the last writer
    and an antichain of readers per address.

    Guarantee (see DESIGN.md §9): the pass reports at least one race
    for every location that has a racing access pair, and never reports
    a pair that is actually ordered — so {!race_free} always equals
    {!Nd_dag.Race.race_free} where the latter is defined, which the
    conformance oracle ({!Nd_check.Oracle}) cross-checks on every fuzz
    case.  Runs in near-linear time in the program's memory-access
    volume (inverse-Ackermann union-find on the SP fast path, a
    logarithmic interval-set membership on fire-ordered queries). *)

type stats = {
  n_leaves : int;
  n_fire_edges : int;
  n_accesses : int;  (** shadow-memory updates performed *)
  n_queries : int;  (** ordering queries answered *)
  sp_hits : int;  (** queries settled by the S-bag fast path *)
}

type verdict = { races : Nd_dag.Race.race list; stats : stats }

(** [analyze ?limit program] — the full pass; stops collecting after
    [limit] (default 16) distinct racing pairs.
    @raise Invalid_argument on a cyclic program (a fire edge whose source
    subtree has not completed when its target starts). *)
val analyze : ?limit:int -> Nd.Program.t -> verdict

(** [find_races ?limit program] — the races of {!analyze}, in the
    serial-elision order of their later endpoint.  Vertex ids refer to
    [Nd.Program.dag program], as with the exact checker. *)
val find_races : ?limit:int -> Nd.Program.t -> Nd_dag.Race.race list

val race_free : Nd.Program.t -> bool

(** [diagnose ?limit ?verdict program] — the races lifted to spawn-tree
    LCA + pedigree findings, exactly as {!Nd.Rule_check.diagnose}
    reports them but without the reachability size cap.  [verdict], an
    {!analyze} of [program] already run, is lifted in place of a fresh
    pass ([limit] is then unused). *)
val diagnose :
  ?limit:int -> ?verdict:verdict -> Nd.Program.t -> Nd.Rule_check.finding list
