module Is = Nd_util.Interval_set

type race = {
  u : Dag.vertex_id;
  v : Dag.vertex_id;
  overlap : Is.t;
  write_write : bool;
}

let pp_race dag ppf r =
  Format.fprintf ppf "%s race between #%d(%s) and #%d(%s) on %a"
    (if r.write_write then "write-write" else "read-write")
    r.u (Dag.label dag r.u) r.v (Dag.label dag r.v) Is.pp r.overlap
