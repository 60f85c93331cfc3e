(* The offline reproduction path, one instance at a time: DRS compile,
   CSR, lint, ESP-bags, structural cost + Theorem-1 certificate, the
   five-member scheduler zoo, serial LRU Q1 and the sharded SB cache
   simulation — every stage of the paper's tables, on every family. *)

open Common
module Span = Spine_lib.Span
module Dag = Nd_dag.Dag
module Workload = Nd_algos.Workload
module Workloads = Nd_experiments.Workloads
module Cost = Nd_analyze.Cost

let name = "pipeline"

(* three cache levels (64/512/4096 words) under one root, 16
   processors *)
let machine = Nd_serve.Server.standard_machine ~top:1

let q1_words = 512

type state = Workload.t array

(* Every family at the 2nd of its sweep sizes, and cholesky, lu and
   stencil at the 3rd as well: 13 instances, each under ~0.4 s on a
   2-core x86 host.  The other 3rd sizes take 0.6 s (trs) to 6 s (mm)
   and would leave too few runs in a phase to take the least of. *)
let shapes ctx =
  if ctx.smoke then [ (Workloads.find "mm", 8); (Workloads.find "lcs", 32) ]
  else
    List.concat_map
      (fun (f : Workloads.family) ->
        let size i = (f, List.nth f.sizes i) in
        if List.mem f.name [ "cholesky"; "lu"; "stencil" ] then [ size 1; size 2 ]
        else [ size 1 ])
      Workloads.all

let setup ctx =
  Array.of_list
    (List.mapi
       (fun i ((f : Workloads.family), n) -> f.build ~n ~base:f.base ~seed:((ctx.seed * 1000) + i))
       (shapes ctx))

let teardown _ = ()

(* every stage of one instance, each checked; returns the failed checks *)
let run_instance ~op ~seed (w : Workload.t) =
  let bad = ref [] in
  let expect ok what = if not ok then bad := what :: !bad in
  let span name f = Span.with_ ~op name f in
  let p = span "core.compile" (fun () -> Workload.compile w) in
  let dag = Nd.Program.dag p in
  ignore (span "dag.csr" (fun () -> Dag.csr dag));
  let work = span "dag.work" (fun () -> Dag.work dag) in
  let findings =
    span "analyze.lint" (fun () ->
        Nd_analyze.Lint.lint_all ~registry:w.registry w.tree)
  in
  expect (not (Nd_analyze.Lint.has_errors findings)) "lint reported an error";
  let verdict = span "analyze.esp" (fun () -> Nd_analyze.Esp_bags.analyze p) in
  expect (verdict.Nd_analyze.Esp_bags.races = []) "ESP-bags found a race";
  let report = span "analyze.cost" (fun () -> Cost.report (Cost.of_program p)) in
  expect (report.Cost.work = work) "cost work <> DAG work";
  let cert =
    span "analyze.certify" (fun () -> Cost.certify_theorem1 p machine)
  in
  expect cert.Cost.certified "Theorem-1 certificate failed";
  List.iter
    (fun (zname, (module S : Nd_sched.Scheduler.S)) ->
      let s = span ("sched." ^ zname) (fun () -> S.run ~seed p machine) in
      expect
        (s.Nd_sched.Scheduler.work = work && s.Nd_sched.Scheduler.busy >= work)
        (zname ^ " did not conserve work"))
    Nd_sched.Zoo.all;
  let q1 = span "mem.q1" (fun () -> Nd_mem.Cache_sim.q1 p ~m:q1_words) in
  expect (q1 >= report.Cost.root_size) "Q1 below the compulsory misses";
  let sb =
    span "mem.sb_sharded" (fun () ->
        Nd_sched.Sb_sched.run ~sim_workers:workers p machine)
  in
  expect
    (sb.Nd_sched.Sb_sched.work = work && sb.Nd_sched.Sb_sched.busy >= work)
    "sharded SB did not conserve work";
  (Dag.n_vertices dag, !bad)

let busy_s name = float_of_int (Span.total name).Span.total_ns /. 1e9

(* about 2.2 s each on a 2-core x86 host *)
let rounds = 6

(* A round runs every instance once, each from a collected heap.  An
   instance's latency is the least of its runs (see README.md,
   "Diagnostics"); throughput is instances per second of those
   latencies, summed.  The p99 diagnostic is over every run. *)
let measure ctx st =
  let attempted = ref 0 and failed = ref 0 in
  let vertices = ref 0 in
  let best = Array.make (Array.length st) infinity in
  let runs = ref [] in
  let coverage = ref 1. in
  repeat ctx rounds (fun _ ->
      Array.iteri
        (fun i (w : Workload.t) ->
          let op = !attempted in
          (* so no run pays for the garbage of the one before it *)
          Gc.full_major ();
          let before = Span.total "pipeline.instance" in
          let (nv, bad), dt =
            timed (fun () ->
                try
                  Span.with_ ~op "pipeline.instance" (fun () ->
                      run_instance ~op ~seed:ctx.seed w)
                with e -> (0, [ Printexc.to_string e ]))
          in
          let after = Span.total "pipeline.instance" in
          let self = after.Span.self_ns - before.Span.self_ns
          and total = after.Span.total_ns - before.Span.total_ns in
          if total > 0 then
            coverage :=
              Float.min !coverage (1. -. (float_of_int self /. float_of_int total));
          incr attempted;
          vertices := !vertices + nv;
          if bad <> [] then begin
            incr failed;
            List.iter
              (fun what ->
                Printf.eprintf "pipeline: %s n=%d: %s\n%!" w.Workload.name
                  w.Workload.n what)
              bad
          end;
          runs := (dt *. 1e3) :: !runs;
          best.(i) <- Float.min best.(i) dt)
        st);
  let per_s name =
    let b = busy_s name in
    if b > 0. then float_of_int !vertices /. b else 0.
  in
  let p50_ms, _ = percentiles_ms (Array.map (fun s -> s *. 1e3) best) in
  {
    attempted = !attempted;
    failed = !failed;
    throughput = float_of_int (Array.length best) /. Array.fold_left ( +. ) 0. best;
    p50_ms;
    p99_ms = snd (percentiles_ms (Array.of_list !runs));
    samples = List.length !runs;
    extra_rss_mb = 0.;
    layers =
      ("core.compile.vertices_per_s", per_s "core.compile")
      :: ("pipeline.span_coverage", if Span.enabled () then !coverage else 0.)
      :: List.map
           (fun (z, _) -> ("sched." ^ z ^ ".vertices_per_s", per_s ("sched." ^ z)))
           Nd_sched.Zoo.all;
  }
