(* The per-layer metrics a traced run reports, by name and unit.  Layer
   prefixes are the repository's libraries; BENCHMARK.json lists the
   same names (the smoke test checks the two agree).  Every workload
   reports every name: a layer it does not exercise reads 0. *)

let zoo = Nd_sched.Zoo.names

let programs = [ "mm"; "trs"; "cholesky"; "lcs" ]

let backends = Nd_runtime.Backend.names

let kinds = [ "ping"; "lint"; "race"; "analyze"; "simulate" ]

let caches = [ "programs"; "lint"; "race"; "analyze"; "simulate" ]

let pools = [ "analyze"; "simulate" ]

let each l f = List.concat_map f l

let all =
  [
    ("core.compile.busy_s", "s");
    ("core.compile.vertices_per_s", "1/s");
    ("dag.csr.busy_s", "s");
    ("analyze.lint.busy_s", "s");
    ("analyze.esp.busy_s", "s");
    ("analyze.cost.busy_s", "s");
    ("analyze.certify.busy_s", "s");
  ]
  @ each zoo (fun z ->
        [ ("sched." ^ z ^ ".busy_s", "s"); ("sched." ^ z ^ ".vertices_per_s", "1/s") ])
  @ [
      ("mem.q1.busy_s", "s");
      ("mem.sb_sharded.busy_s", "s");
      ("pipeline.span_coverage", "ratio");
    ]
  @ each programs (fun p -> [ ("core.serial." ^ p ^ ".busy_s", "s") ])
  @ each backends (fun b ->
        each programs (fun p -> [ (Printf.sprintf "runtime.%s.%s.busy_s" b p, "s") ])
        @ [ ("runtime." ^ b ^ ".run_s", "s"); ("runtime." ^ b ^ ".speedup", "ratio") ])
  @ [ ("runtime.fiber.false_deadlocks", "count") ]
  @ each kinds (fun k ->
        [ ("util.frame.encode_us." ^ k, "us"); ("util.frame.decode_us." ^ k, "us") ])
  @ [ ("serve.client.send_us", "us") ]
  @ each kinds (fun k ->
        [
          ("serve.wire." ^ k ^ ".mean_us", "us");
          ("serve.server." ^ k ^ ".p50_us", "us");
          ("serve.server." ^ k ^ ".p99_us", "us");
        ])
  @ each caches (fun c ->
        [ ("serve.cache." ^ c ^ ".hit_ratio", "ratio"); ("serve.cache." ^ c ^ ".evictions", "count") ])
  @ each pools (fun p -> [ ("serve.pool." ^ p ^ ".executed", "count") ])
  @ [
      ("gen.late_p99_us", "us");
      ("gen.offered_rps", "1/s");
      ("trace.spans", "count");
      ("trace.overhead_pct", "%");
      ("trace.throughput", "1/s");
      ("trace.latency_p50_ms", "ms");
      ("trace.latency_p99_ms", "ms");
    ]

(* the bounded end-to-end metrics of an untraced run *)
let end_to_end = [ ("setup_s", "s"); ("peak_rss_mb", "MiB") ]

(* what an untraced run reports besides, unbounded: on a shared 2-core
   host none of them repeats within 10% from run to run in every hour
   (see README.md) *)
let diagnostics = [ ("throughput", "1/s"); ("latency_p50_ms", "ms"); ("latency_p99_ms", "ms") ]
