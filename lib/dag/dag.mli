(** Algorithm DAGs.

    The vertices are strands (serial code segments with a work count and a
    memory footprint split into reads and writes) plus zero-work
    synchronization vertices introduced when full serial dependencies
    between large subtrees are represented compactly.  Edges are data
    dependencies.  This is the object the paper calls the {e algorithm DAG}:
    the DRS ({!module:Nd.Drs}) produces one from a spawn tree, and all
    work-span and scheduling analyses run on it. *)

type t

type vertex_id = int

val create : unit -> t

(** [add_vertex t ~label ~work ~reads ~writes] appends a vertex and returns
    its id.  Ids are dense and increase in creation order.
    @raise Invalid_argument on a frozen DAG (see {!csr}). *)
val add_vertex :
  t ->
  ?label:string ->
  work:int ->
  reads:Nd_util.Interval_set.t ->
  writes:Nd_util.Interval_set.t ->
  unit ->
  vertex_id

(** [freeze t edges] gives [t] its edges and freezes it.  [edges link]
    must call [link u v] once per dependency [u -> v], in the same
    order each time it is called, and [freeze] calls it twice: once to
    count each vertex's successors, once to fill the CSR (see {!csr}),
    so no other copy of the edges is made.  Duplicate edges are
    coalesced: the DAG keeps each edge as of its first link.
    @raise Invalid_argument on out-of-range ids, a self loop, a second
    pass that gives another edge count, or a frozen DAG. *)
val freeze : t -> ((vertex_id -> vertex_id -> unit) -> unit) -> unit

val n_vertices : t -> int

(** The number of distinct edges.  It reads the adjacency, so it
    freezes the DAG (see {!csr}). *)
val n_edges : t -> int

val label : t -> vertex_id -> string

val work_of : t -> vertex_id -> int

val reads_of : t -> vertex_id -> Nd_util.Interval_set.t

val writes_of : t -> vertex_id -> Nd_util.Interval_set.t

(** [footprint_of t v] is the union of reads and writes. *)
val footprint_of : t -> vertex_id -> Nd_util.Interval_set.t

(** Total work [T_1]: sum of vertex works. *)
val work : t -> int

(** The adjacency, as compressed sparse rows of successors.  [succ_off]
    has length [n_vertices + 1]; the successors of [v] are
    [succ_tgt.(succ_off.(v)) .. succ_tgt.(succ_off.(v+1) - 1)], newest
    link first.  [indeg.(v)] is the in-degree of [v].  There is no
    predecessor half: an ND program runs by dependency counters, so
    executors and simulators read successor slices and in-degrees only.

    {!freeze} builds the arrays, and they are the DAG's only edge
    storage; a DAG given no edges is frozen with none by the first
    read.  From then on the DAG is frozen: {!add_vertex} and {!freeze}
    raise, so the CSR is built once and never invalidated.  Every
    traversal below calls it.  The arrays are shared: treat them as
    read-only.  A DAG shared across domains must be frozen before it is
    shared; {!Nd.Program.compile} returns every compiled program's DAG
    frozen. *)
type csr = { succ_off : int array; succ_tgt : int array; indeg : int array }

val csr : t -> csr

exception Cycle of vertex_id

(** [cycle_witness t remaining] is a vertex on a cycle of [t], given
    the in-degrees [remaining] a topological pass that ran until no
    vertex was ready left behind: [remaining.(v) > 0] exactly for the
    vertices it never reached.  It notes one still-blocked predecessor
    of each blocked vertex, from the blocked vertices' successor
    slices, and walks back through them until one repeats; that costs
    O(V + E) time and a V-word array, on the stall path only.
    {!topo_order} and [Nd.Serial_exec.run] raise {!Cycle} with it. *)
val cycle_witness : t -> int array -> vertex_id

(** [topo_order t] returns the vertices in a topological order.
    @raise Cycle if the graph has one (the witness is on a cycle). *)
val topo_order : t -> vertex_id array

(** [span t] is [T_inf]: the maximum total vertex work along any directed
    path (the critical path length). *)
val span : t -> int

(** [critical_path t] returns one witness path realizing {!span}, from a
    source to a sink. *)
val critical_path : t -> vertex_id list

(** Vertices with no predecessors. *)
val sources : t -> vertex_id list

(** [longest_path_weighted t weight] generalizes {!span} to arbitrary
    non-negative vertex weights. *)
val longest_path_weighted : t -> (vertex_id -> int) -> int
