(** Static structural cost analysis of spawn trees (ND model).

    One pass over a {!Nd.Spawn_tree.t} plus its fire-rule registry
    computes the quantities the paper's theorems talk about — exact
    work, span {e including fire-edge chains}, peak footprint, and the
    per-level serial cache complexity [Q*(t; M)] — without materializing
    the fine-grained algorithm DAG.  The pass is O(tree nodes + fire
    edges): span comes from a longest-path DP over a DFS event numbering
    of the tree (which is a topological order of the DAG the DRS would
    build, see DESIGN.md §14), and work / footprint / [Q*] are memoized
    per translation-normalized subtree {e shape}, so regular
    divide-and-conquer algorithms pay for each distinct shape once.

    The numbers are exact, not bounds: on every program where the DAG
    path is defined, [work]/[span]/[root_size]/[q_star] equal
    [Dag.work]/[Dag.span]/[Program.size]/[Pcc.q_star] bit for bit (the
    oracle, the E12 experiment and [test_analyze] enforce this).  The
    point is scale — the structural pass runs on n=512 workload families
    whose DAGs are far past {!Nd_dag.Race.max_vertices}.

    [peak_footprint] is the one conservative quantity: the maximum, over
    antichains of the tree, of the summed footprint sizes of
    simultaneously-live subtrees (Seq takes the max over children, Par
    and Fire the sum) — an upper bound on the space any schedule of the
    construct can have live at once, used by lint rule ND011 to warn
    when a machine level cannot hold the working set. *)

type t

(** Aggregate results of the structural pass. *)
type report = {
  work : int;  (** total strand work, [= Dag.work] *)
  span : int;  (** critical path including fire edges, [= Dag.span] *)
  parallelism : float;  (** [work / span] ([0.] when [span = 0]) *)
  peak_footprint : int;  (** conservative peak live footprint (words) *)
  root_size : int;  (** [s(root)]: distinct words touched *)
  n_leaves : int;
  n_nodes : int;  (** spawn-tree nodes *)
  n_fire_edges : int;  (** distinct rewritten dataflow arrows *)
  n_shapes : int;  (** distinct subtree shapes (memoization classes) *)
}

(** [analyze ~registry tree] runs the structural pass.
    @raise Invalid_argument on an undefined fire type (same condition as
    [Program.compile]). *)
val analyze : registry:Nd.Fire_rule.registry -> Nd.Spawn_tree.t -> t

(** [of_program p] analyzes [p]'s tree against [p]'s registry. *)
val of_program : Nd.Program.t -> t

val report : t -> report

val work : t -> int

val span : t -> int

val peak_footprint : t -> int

val root_size : t -> int

(** [q_star t ~m] is the serial cache complexity of the m-maximal task
    decomposition: the summed sizes of maximal tasks plus the number of
    glue nodes — structurally identical to
    [Nd_mem.Pcc.q_star (Program.compile ...) ~m], but computed by a
    memoized recurrence over subtree shapes.
    @raise Invalid_argument if [m < 1]. *)
val q_star : t -> m:int -> int

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Nd_util.Json.t

(** {1 Theorem 1 certification} *)

type level_check = {
  level : int;  (** 1-based PMH cache level *)
  m : int;  (** the bound's capacity argument, [max 1 (floor (sigma*M_j))] *)
  misses : int;  (** SB-simulated ρ misses at this level *)
  bound : int;  (** static [Q*(t; m)] *)
}

type certification = {
  sigma : float;
  levels : level_check list;
  certified : bool;  (** [misses <= bound] at every level *)
}

(** [certify_theorem1 ?sigma ?cost program machine] runs the
    space-bounded scheduler under ρ accounting and checks the paper's
    Theorem 1 cache bound: per-level misses at cache level [j] must not
    exceed the static [Q*(t; sigma * M_j)].  [sigma] defaults to 1/3
    (Lemma 6).  The simulation needs the compiled program; the bounds
    come from the structural pass, [cost] when the caller already has
    [of_program program], else a fresh one. *)
val certify_theorem1 :
  ?sigma:float -> ?cost:t -> Nd.Program.t -> Nd_pmh.Pmh.t -> certification

val certification_to_json : certification -> Nd_util.Json.t

val pp_certification : Format.formatter -> certification -> unit
