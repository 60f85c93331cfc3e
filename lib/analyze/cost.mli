(** Static structural cost of ND programs.

    [of_program] reads a compiled program in one pass over its
    post-order nodes: the peak footprint comes from that pass, work,
    span {e including fire-edge chains} (the DAG's critical path) and
    the leaf count from [Nd.Analysis.analyze], the root size from
    [Program.size] and the fire pairs from [Program.n_fire_edges].  The
    per-level serial cache complexity [Q*(t; M)] is
    [Nd_mem.Pcc.q_star], which [certify_theorem1] reads at each level
    of the machine.  The compile-free references these are tested
    against live in [test/cost_ref.ml] (DESIGN.md §14).

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
}

(** [of_program p]: one pass over [p]'s nodes for the peak; it walks no
    fire arrow. *)
val of_program : Nd.Program.t -> t

val report : t -> report

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
  stats : Nd_sched.Sb_sched.stats;
      (** the ρ run the levels' misses come from ([Coarse] mode at
          [sigma]) *)
}

(** [certify_theorem1 ?sigma program machine] runs the space-bounded
    scheduler under ρ accounting and checks the paper's Theorem 1 cache
    bound: per-level misses at cache level [j] must not exceed the
    static [Q*(t; sigma * M_j)] ([Nd_mem.Pcc.q_star]).  [sigma] defaults
    to 1/3 (Lemma 6).  The scheduler's level [j] is the same cut, so the
    bounds read the decompositions its run has just memoized.  The
    certification carries the run it certified ([stats]): at the default
    [sigma] it is [Sb_sched.run program machine] with every default, so
    a caller that also wants that simulation reads it there. *)
val certify_theorem1 :
  ?sigma:float -> Nd.Program.t -> Nd_pmh.Pmh.t -> certification

val certification_to_json : certification -> Nd_util.Json.t

val pp_certification : Format.formatter -> certification -> unit
