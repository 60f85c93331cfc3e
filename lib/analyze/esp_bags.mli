(** ESP-bags: near-linear on-the-fly determinacy-race detection, the
    race detector behind [ndsim race], lint's ND009 (its one race
    finding, for [Par] siblings and fire sides alike; ND008, a
    tree-only overlap check, is retired), experiment E8, the
    conformance oracle and the server.

    One serial-elision DFS of the spawn tree answers every ordering
    query: reader/writer {e bags} over completed subtrees maintained
    with union-find answer the series-parallel ones (the classic SP-bags
    algorithm), and the ⇝ fire edges — which in this DRS always order
    one contiguous DFS leaf interval entirely before another
    ({!Nd.Program.n_fire_edges}) — are honored through exact per-node
    happens-before interval sets.  Shadow memory keeps the last writer
    and an antichain of readers per address.

    Guarantee (see DESIGN.md §9): the pass reports at least one race
    for every location that has a racing access pair, and never reports
    a pair that is actually ordered — so {!race_free} is exact.  The
    tests check it against an exhaustive pairwise search over the DAG's
    reachability closure on generated programs and on every packaged
    workload.  Runs in near-linear time in the program's memory-access
    volume (inverse-Ackermann union-find on the SP fast path, a
    logarithmic interval-set membership on fire-ordered queries), with
    no cap on the program's size. *)

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
    [Nd.Program.dag program]. *)
val find_races : ?limit:int -> Nd.Program.t -> Nd_dag.Race.race list

val race_free : Nd.Program.t -> bool

(** [diagnose ?limit ?verdict program] — the races, each lifted to its
    spawn-tree LCA and pedigrees by {!Nd.Rule_check.lift}.  [verdict],
    an {!analyze} of [program] already run, is lifted in place of a
    fresh pass ([limit] is then unused). *)
val diagnose :
  ?limit:int -> ?verdict:verdict -> Nd.Program.t -> Nd.Rule_check.finding list
