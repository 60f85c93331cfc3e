(** Static structural cost of ND programs.

    [of_program] reads a compiled program: exact work, span {e including
    fire-edge chains} (the DAG's critical path), peak footprint, and the
    per-level serial cache complexity [Q*(t; M)].  Work, leaves,
    footprints and [Q*] come from one pass over the program's post-order
    nodes, memoized per translation-normalized subtree {e shape}, so
    regular divide-and-conquer algorithms pay for each distinct shape
    once.  The sizes come from the shapes' own footprint unions, not
    [Program.size], so [q_star] is derived independently of [Pcc.q_star].

    [tree_span] is the compile-free span reference: a longest-path DP
    over a DFS event numbering of the bare tree, which is a topological
    order of the DAG the DRS would build (DESIGN.md §14).  Lint rule
    ND010 sweeps it over problem sizes.

    The numbers are exact, not bounds: the report's [work], [n_leaves],
    [root_size] and [q_star] equal [Dag.work], [Spawn_tree.n_leaves],
    [Program.size] and [Pcc.q_star], and [tree_span] equals [Dag.span]
    and [Program.n_fire_edges], bit for bit (the oracle, the E12
    experiment and [test_analyze] enforce this).

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

(** [of_program p]: span is [Dag.span (Program.dag p)] and the fire
    pairs [Program.n_fire_edges p]; it walks no fire arrow. *)
val of_program : Nd.Program.t -> t

type tree_span = { span : int; n_fire_edges : int }

(** [tree_span ~registry tree]: the span and distinct fire pairs of
    [Program.compile ~registry tree], from the tree and one DRS walk.
    @raise Invalid_argument exactly where [Program.compile] does. *)
val tree_span : registry:Nd.Fire_rule.registry -> Nd.Spawn_tree.t -> tree_span

val report : t -> report

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
    (Lemma 6).  The bounds come from [cost] when the caller already has
    [of_program program], else from a fresh one.
    @raise Invalid_argument if [cost]'s node count or root size differs
    from [program]'s: it is the cost of another program. *)
val certify_theorem1 :
  ?sigma:float -> ?cost:t -> Nd.Program.t -> Nd_pmh.Pmh.t -> certification

val certification_to_json : certification -> Nd_util.Json.t

val pp_certification : Format.formatter -> certification -> unit
