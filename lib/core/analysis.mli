(** Work–span analysis of ND programs.

    Work composes by summation under all three constructs; span is the
    critical path of the algorithm DAG produced by the DRS, which this
    module measures directly rather than by per-construct recurrences (the
    paper notes that the span of a fire composition must be computed from
    its rule set case by case — the DAG is the ground truth). *)

type report = {
  work : int;  (** T_1 *)
  span : int;  (** T_inf: critical path of the algorithm DAG *)
  parallelism : float;  (** T_1 / T_inf *)
  n_leaves : int;
  n_vertices : int;
  n_edges : int;
}

(** [analyze program] measures the compiled program. *)
val analyze : Program.t -> report

(** [np_of ~registry tree] is the report of the NP projection
    (fires serialized); the registry is still needed to compile, though no
    fire arrows remain. *)
val np_of : registry:Fire_rule.registry -> Spawn_tree.t -> report

val pp_report : Format.formatter -> report -> unit
