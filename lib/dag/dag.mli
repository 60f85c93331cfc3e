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
    its id.  Ids are dense and increase in creation order. *)
val add_vertex :
  t ->
  ?label:string ->
  work:int ->
  reads:Nd_util.Interval_set.t ->
  writes:Nd_util.Interval_set.t ->
  unit ->
  vertex_id

(** [add_edge t u v] adds the dependency [u -> v].  Duplicate edges are
    coalesced.  @raise Invalid_argument on out-of-range ids or self loop. *)
val add_edge : t -> vertex_id -> vertex_id -> unit

(** [add_new_edge t u v] is [add_edge t u v] for an edge the caller
    knows is absent: O(1), with no scan of [u]'s successors (the scan is
    quadratic on high-degree vertices).  Callers deduplicate themselves,
    as the DRS compiler does with a per-compile edge set; adding an
    edge that is already present duplicates it.
    @raise Invalid_argument on out-of-range ids or self loop. *)
val add_new_edge : t -> vertex_id -> vertex_id -> unit

val n_vertices : t -> int

val n_edges : t -> int

val succs : t -> vertex_id -> vertex_id list

val preds : t -> vertex_id -> vertex_id list

val label : t -> vertex_id -> string

val work_of : t -> vertex_id -> int

val reads_of : t -> vertex_id -> Nd_util.Interval_set.t

val writes_of : t -> vertex_id -> Nd_util.Interval_set.t

(** [footprint_of t v] is the union of reads and writes. *)
val footprint_of : t -> vertex_id -> Nd_util.Interval_set.t

(** Total work [T_1]: sum of vertex works. *)
val work : t -> int

(** Flat compressed-sparse-row view of the adjacency, for hot loops that
    cannot afford list traversal or allocation (the multicore dataflow
    executor's wake-up scan).  [succ_off] has length [n_vertices + 1];
    the successors of [v] are [succ_tgt.(succ_off.(v)) ..
    succ_tgt.(succ_off.(v+1) - 1)].  [indeg.(v)] is the in-degree of [v]
    at build time.  The arrays are cached inside the DAG and shared
    between calls: treat them as read-only.  Any [add_vertex]/[add_edge]
    invalidates the cache. *)
type csr = {
  succ_off : int array;
  succ_tgt : int array;
  indeg : int array;
}

val csr : t -> csr

exception Cycle of vertex_id

(** [topo_order t] returns the vertices in a topological order.
    @raise Cycle if the graph has one (the witness is on a cycle). *)
val topo_order : t -> vertex_id array

(** [span t] is [T_inf]: the maximum total vertex work along any directed
    path (the critical path length). *)
val span : t -> int

(** [critical_path t] returns one witness path realizing {!span}, from a
    source to a sink. *)
val critical_path : t -> vertex_id list

(** Vertices with no predecessors / successors. *)
val sources : t -> vertex_id list

val sinks : t -> vertex_id list

(** [longest_path_weighted t weight] generalizes {!span} to arbitrary
    non-negative vertex weights. *)
val longest_path_weighted : t -> (vertex_id -> int) -> int

(** [reachability ?max_vertices t] computes the full transitive-closure as
    bitsets; [reachable r u v] tells whether there is a directed path
    [u ->* v] (including [u = v]).  Quadratic space ([n^2 / 8] bytes):
    intended for validation on moderate instances only.
    @raise Invalid_argument beyond [max_vertices] (default 60_000)
    vertices.  [Race.max_vertices] carries the effective cap (overridable
    via the [NDSIM_RACE_MAX] environment variable) and [Race.find_races]
    turns the overflow into the explicit [Race.Limit_exceeded]; callers
    that need ordering at larger scale use the near-linear
    [Nd_analyze.Esp_bags] pass instead. *)
type reachability

val reachability : ?max_vertices:int -> t -> reachability

val reachable : reachability -> vertex_id -> vertex_id -> bool
