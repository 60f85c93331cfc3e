(** Plain-text per-worker utilization / steal summary of a trace. *)

(** [table t] — one row per worker plus a totals row; utilization is
    busy time over the trace's wall-clock extent. *)
val table : Collector.t -> Nd_util.Table.t

(** [to_string t] — {!table} rendered, followed by the top strand labels
    by inclusive time and a drop warning when the rings overflowed. *)
val to_string : Collector.t -> string
