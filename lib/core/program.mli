(** Compiled ND programs: the DAG Rewriting System (DRS).

    [compile] fully unfolds a spawn tree and materializes the equivalent
    algorithm DAG defined by the paper's two rewriting rules:

    - {b Spawn rule}: every spawn-tree node contributes structure to the
      DAG.  Strands become work-carrying vertices.  [Seq] chains its
      children; [Par] and [Fire] fan out between zero-work begin/end
      synchronization vertices, which keeps the DAG linear in the number of
      leaves while preserving the precedence relation exactly (a full
      dependency [a ; b] is the single edge [end(a) -> begin(b)], and
      [end(a)] is a descendant of every leaf of [a]).

    - {b Fire rule}: every [Fire] node seeds a dataflow arrow
      [(src, snk, rule)] which is rewritten recursively: each registered
      rule [+p ⇝R -q] resolves the pedigrees [p] and [q] below the arrow's
      endpoints and recurses; arrows between two strands, and arrows whose
      rules make no further progress, become full-dependency edges (the
      paper: fire arrows incident to leaves are treated as solid arrows).
      Fire types with an empty rule list behave as ["‖"].

    Leaves are numbered in depth-first order, so every spawn-tree node
    covers a contiguous leaf interval — the representation behind the
    M-maximal decompositions used by the metrics and schedulers.

    Two tables serve only the analyses: node sizes ({!size},
    {!decompose}) and the sorted fire pairs ({!n_fire_edges}).  The
    first call that reads either builds both, once, under the program's
    lock, from the emissions [compile] kept; a later read takes no lock.
    Execution reads neither, so a program that is only run never builds
    them. *)

type t

type node_id = int

type kind = Leaf of Strand.t | Seq | Par | Fire of string

(** [compile ~registry tree] runs the DRS: it builds the spawn-tree
    nodes, their work, the DAG and its CSR, and leaves the sizes and
    fire pairs to their first reader.
    @raise Invalid_argument if the tree references an unregistered fire
    type, or holds a [Seq] or [Par] with no children (so every node
    covers at least one leaf). *)
val compile : registry:Fire_rule.registry -> Spawn_tree.t -> t

val dag : t -> Nd_dag.Dag.t

val tree : t -> Spawn_tree.t

val registry : t -> Fire_rule.registry

(** {2 Spawn-tree nodes} *)

val n_nodes : t -> int

val root : t -> node_id

(** [parent t n] is [-1] for the root. *)
val parent : t -> node_id -> node_id

val children : t -> node_id -> node_id array

val kind_of : t -> node_id -> kind

(** [leaf_range t n] is the half-open interval of DFS leaf indices covered
    by [n]'s subtree. *)
val leaf_range : t -> node_id -> int * int

val n_leaves : t -> int

(** [leaf_node t i] / [leaf_vertex t i]: the node id / DAG vertex of the
    [i]-th leaf in DFS order. *)
val leaf_node : t -> int -> node_id

val leaf_vertex : t -> int -> Nd_dag.Dag.vertex_id

(** [vertex_owner t v] is the deepest spawn-tree node a DAG vertex belongs
    to (strand vertices belong to their leaf; synchronization vertices to
    the node that introduced them).

    Node ids and vertex ids are both numbered in post-order: a leaf's
    vertex comes with the leaf, and a [Par] or [Fire] node's begin and
    end vertices after all of its children's.  So [vertex_owner] is
    nondecreasing in [v], and every subtree's vertices form one
    contiguous id range.  The space-bounded scheduler's event tables
    ([Nd_sched.Sb_sched]) rest on this. *)
val vertex_owner : t -> Nd_dag.Dag.vertex_id -> node_id

(** The fire edges: the deduplicated non-structural dependencies the
    fire-rule rewriting added, as spawn-tree node pairs [(a, b)] — each
    denotes the DAG edge [end(a) -> begin(b)], i.e. {e every} strand of
    [a]'s subtree precedes {e every} strand of [b]'s subtree.  This is
    the complete extra ordering the ⇝ arrows contribute on top of the
    series-parallel skeleton; the ESP-bags race detector
    ({!Nd_analyze}) and the fire-rule linter consume it.  They are held
    in one flat int array sorted by [(a, b)]: [n_fire_edges t] pairs,
    the [i]-th being [(fire_src t i, fire_snk t i)].  The first call of
    these three, {!size}, {!decompose} or {!heap_words} sorts them
    (see the header). *)
val n_fire_edges : t -> int

val fire_src : t -> int -> node_id

val fire_snk : t -> int -> node_id

(** [rule_uses t]: the per-rule tallies of the DRS walk [compile] ran,
    as {!Drs.rewrite} returns them ([[]] for a fire-free tree).  The
    dead-rule lint (ND002) reads them instead of walking again. *)
val rule_uses : t -> Drs.use list

(** [begin_vertex t n]: the DAG vertex that precedes every strand of
    [n]'s subtree (a leaf's own vertex). *)
val begin_vertex : t -> node_id -> Nd_dag.Dag.vertex_id

(** {2 Sizes} *)

(** [size t n] = s(n): distinct memory locations accessed by the subtree
    (the paper's statically-allocated task size), the cardinality of
    the union of its strands' footprints.  The first read of the
    analysis tables (see the header) builds each node's union from its
    children's and drops the children's sets as it goes: a program
    keeps the sizes, not the sets. *)
val size : t -> node_id -> int

(** [work_of_node t n]: total strand work in the subtree. *)
val work_of_node : t -> node_id -> int

(** {2 Memory} *)

(** Heap words reachable from parts of a compiled program, by
    [Obj.reachable_words]: a block shared within a part counts once.
    [heap_words] builds the analysis tables first, so [program]
    counts them and not the emissions they came from. *)
type heap_words = {
  adjacency : int;  (** the DAG's successor CSR and in-degrees *)
  fire_pairs : int;  (** the sorted fire edges *)
  program : int;  (** all of it, strand actions and their operands included *)
}

val heap_words : t -> heap_words

(** {2 M-maximal decomposition} *)

(** A cut of the spawn tree into maximal tasks and glue, and of the DAG
    into parts: part [i < Array.length tasks] holds task [i]'s vertices
    (its subtree's id range), and every glue vertex (a [Par] or [Fire]
    glue node's begin or end) is a part of its own, numbered from
    [Array.length tasks] up in vertex order. *)
type decomposition = {
  m : int;  (** the bound the cut was taken at *)
  tasks : node_id array;  (** maximal task roots, in DFS order *)
  task_of_node : int array;  (** node -> task index, or -1 for glue nodes *)
  task_of_vertex : int array;
      (** DAG vertex -> part: its task's index, or the glue vertex's own
          part *)
  n_glue : int;  (** number of glue nodes *)
  n_parts : int;  (** tasks plus glue vertices *)
}

(** [decompose t ~m] splits the spawn tree into M-maximal tasks (size at
    most [m], parent bigger) and glue nodes.  A leaf whose strand exceeds
    [m] is still a task of its own (it cannot be split).

    The cuts nest: for [m <= m'], every [m]-task lies inside one
    [m']-task, and the [m]-tasks inside [m']-task [i] are the ascending
    index range from the one holding [i]'s first leaf to the one holding
    its last ([leaf_range], [leaf_node]).  The space-bounded scheduler
    reads its task parents, children and atoms off this.

    Results are memoized per program (keyed by [m]) — sigma-sweeps and
    the PCC/ECC metrics re-request the same decompositions, and the
    result is immutable.  The memo table and the first build of the
    analysis tables share the program's one lock, and each computes
    under it (single-flight), so a compiled program may be shared
    freely across domains — the analysis server's worker pools rely on
    this.
    @raise Invalid_argument if [m < 1]. *)
val decompose : t -> m:int -> decomposition

(** [coarsen t ~grain] is the same cut by work: its tasks are the
    maximal subtrees of work at most [grain], and a leaf above [grain]
    is a task of its own.  [m] holds [grain].  Not memoized: the
    dataflow executor takes it once per run. *)
val coarsen : t -> grain:int -> decomposition

(** [contract t d] lifts [t]'s DAG onto [d]'s parts: one zero-work
    vertex per part, and one edge [p -> q] for each pair of different
    parts that some DAG edge [u -> v] joins ([u] in [p], [v] in [q]),
    linked at the first such edge (each slice lists its targets newest
    first, as {!Nd_dag.Dag.csr} says).  Ecc's depth term and the
    executor's grain plan run on this graph; the space-bounded
    scheduler numbers its fine events by [d]'s parts.  [d] must be a
    cut of [t]. *)
val contract : t -> decomposition -> Nd_dag.Dag.t

(** [is_ancestor t a n] is true when [a] is an ancestor of [n] (or equal). *)
val is_ancestor : t -> node_id -> node_id -> bool
