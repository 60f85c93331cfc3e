(** Trace analysis: strand intervals, per-strand inclusive time and the
    trace-derived critical path.

    The critical path is computed {e from the trace}: each DAG vertex is
    weighted by the work recorded in its [Strand_begin] event (vertices
    that never appear in the trace weigh 0), and the heaviest path through
    the algorithm DAG is taken.  On a complete vertex-granular trace
    (serial, work-stealing or dataflow execution) this must equal
    [Nd.Analysis]'s ND span — the cross-check run by [test_trace]. *)

type interval = {
  worker : int;
  vertex : int;
  label : string;
  work : int;
  t0 : int;
  t1 : int;
}

(** [intervals t] — matched [Strand_begin]/[Strand_end] pairs, per-worker
    (begin/end nest per worker; unmatched events are dropped), in global
    timestamp order of their begins. *)
val intervals : Collector.t -> interval list

(** [critical_path t dag] — length of the heaviest [dag] path, each
    vertex weighted by its work as recorded in the trace (0 when
    untraced). *)
val critical_path : Collector.t -> Nd_dag.Dag.t -> int

(** [coverage t dag] — [(traced, total)] counts of positive-work DAG
    vertices; [traced = total] means the critical path is exact. *)
val coverage : Collector.t -> Nd_dag.Dag.t -> int * int

(** [inclusive_by_label t] — [(label, executions, total time)] aggregated
    over strand intervals, heaviest first. *)
val inclusive_by_label : Collector.t -> (string * int * int) list
