(** Determinacy races on algorithm DAGs.

    Two vertices race when their footprints conflict (write/write or
    read/write overlap) and neither is an ancestor of the other.  The
    paper's fire-rule sets are supposed to serialize every pair of subtasks
    that write the same region.  [Nd_analyze.Esp_bags] checks that
    property for the DAGs the DRS produces (experiment E8) and reports
    each unordered pair as a {!race}; it is how we detected that the
    literal MM rule set from Section 2 of the paper leaves a write-write
    race (see DESIGN.md). *)

type race = {
  u : Dag.vertex_id;
  v : Dag.vertex_id;
  overlap : Nd_util.Interval_set.t;  (** conflicting addresses *)
  write_write : bool;  (** [false] means a read/write conflict *)
}

val pp_race : Dag.t -> Format.formatter -> race -> unit
