module Collector = Nd_trace.Collector
module Event = Nd_trace.Event
module Chrome = Nd_trace.Chrome
module Analyzer = Nd_trace.Analyzer
module Json = Nd_util.Json
module Pmh = Nd_pmh.Pmh
module Sb = Nd_sched.Sb_sched
module Ws = Nd_sched.Work_steal
open Nd_algos

let small_machine ?(top = 1) () =
  Pmh.create ~root_fanout:top
    [
      { Pmh.size = 64; fanout = 1; miss_cost = 2 };
      { Pmh.size = 512; fanout = 2; miss_cost = 8 };
      { Pmh.size = 4096; fanout = 2; miss_cost = 32 };
    ]

let small_workloads () =
  [
    ("mm", Workload.compile (Matmul.workload ~n:16 ~base:2 ~seed:1 ()));
    ("trs", Workload.compile (Trs.workload ~n:16 ~base:2 ~seed:1 ()));
    ("lcs", Workload.compile (Lcs.workload ~n:64 ~base:2 ~seed:1 ()));
  ]

(* --------------------------- collector ----------------------------- *)

let test_null_sink () =
  let t = Collector.null in
  Alcotest.(check bool) "disabled" false (Collector.enabled t);
  Collector.emit t ~worker:0 ~ts:0 (Event.Spawn { count = 1 });
  Collector.emit_now t ~worker:5 (Event.Spawn { count = 1 });
  Alcotest.(check int) "no events" 0 (List.length (Collector.events t));
  Alcotest.(check int) "no drops" 0 (Collector.dropped t)

let test_ring_overflow () =
  let t = Collector.create ~capacity:8 ~workers:1 () in
  for i = 0 to 19 do
    Collector.emit t ~worker:0 ~ts:i (Event.Fire { target = i; level = 0 })
  done;
  Alcotest.(check int) "dropped" 12 (Collector.dropped t);
  let evs = Collector.events t in
  Alcotest.(check int) "retained" 8 (List.length evs);
  (* oldest events were overwritten: the newest survive in order *)
  Alcotest.(check int) "first retained ts" 12 (List.hd evs).Event.ts;
  Alcotest.(check int) "last retained ts" 19
    (List.nth evs 7).Event.ts

let test_merge_sorted () =
  let t = Collector.create ~workers:3 () in
  Collector.emit t ~worker:2 ~ts:5 (Event.Spawn { count = 2 });
  Collector.emit t ~worker:0 ~ts:1 (Event.Spawn { count = 0 });
  Collector.emit t ~worker:1 ~ts:3 (Event.Spawn { count = 1 });
  Collector.emit t ~worker:0 ~ts:3 (Event.Spawn { count = 0 });
  let ts = List.map (fun e -> e.Event.ts) (Collector.events t) in
  Alcotest.(check (list int)) "sorted" [ 1; 3; 3; 5 ] ts

(* ------------------------- event ordering -------------------------- *)

(* every interval is well-formed and, for every DAG edge u -> v between
   traced vertices, end(u) <= begin(v): the trace's happens-before
   respects the algorithm DAG *)
let check_happens_before p tracer =
  let dag = Nd.Program.dag p in
  let n = Nd_dag.Dag.n_vertices dag in
  let { Nd_dag.Dag.succ_off; succ_tgt; _ } = Nd_dag.Dag.csr dag in
  let begin_ts = Array.make n min_int and end_ts = Array.make n min_int in
  List.iter
    (fun iv ->
      if iv.Analyzer.t1 < iv.Analyzer.t0 then
        Alcotest.failf "interval ends before it begins (v%d)" iv.Analyzer.vertex;
      if iv.Analyzer.vertex >= 0 && iv.Analyzer.vertex < n then begin
        begin_ts.(iv.Analyzer.vertex) <- iv.Analyzer.t0;
        end_ts.(iv.Analyzer.vertex) <- iv.Analyzer.t1
      end)
    (Analyzer.intervals tracer);
  for u = 0 to n - 1 do
    if end_ts.(u) > min_int then
      for k = succ_off.(u) to succ_off.(u + 1) - 1 do
        let v = succ_tgt.(k) in
        if begin_ts.(v) > min_int && end_ts.(u) > begin_ts.(v) then
          Alcotest.failf "edge %d->%d violated: end %d > begin %d" u v
            end_ts.(u) begin_ts.(v)
      done
  done

let test_ordering_serial () =
  List.iter
    (fun (_name, p) ->
      let tracer = Collector.create ~workers:1 () in
      Nd.Serial_exec.run ~tracer p;
      check_happens_before p tracer)
    (small_workloads ())

let test_ordering_ws () =
  let machine = small_machine ~top:2 () in
  List.iter
    (fun (_name, p) ->
      let tracer = Collector.create ~workers:(Pmh.n_procs machine) () in
      ignore (Ws.run ~tracer p machine);
      check_happens_before p tracer)
    (small_workloads ())

(* --------------------- chrome JSON round-trip ---------------------- *)

let test_chrome_roundtrip () =
  let machine = small_machine () in
  let _, p = List.hd (small_workloads ()) in
  let tracer = Collector.create ~workers:(Pmh.n_procs machine) () in
  ignore (Sb.run ~tracer p machine);
  let json = Chrome.to_string tracer in
  let v = Json.parse json in
  let evs =
    match Json.member "traceEvents" v with
    | Some l -> Json.to_list l
    | None -> Alcotest.fail "no traceEvents key"
  in
  Alcotest.(check bool) "nonempty" true (List.length evs > 0);
  (* one named thread track per simulated processor *)
  let tracks =
    List.filter
      (fun e ->
        match Json.member "name" e with
        | Some (Json.String "thread_name") -> true
        | _ -> false)
      evs
  in
  Alcotest.(check int) "tracks" (Pmh.n_procs machine) (List.length tracks);
  (* every event has the mandatory fields, and B/E balance per tid *)
  let opens = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let ph =
        match Json.member "ph" e with
        | Some s -> Json.to_string_exn s
        | None -> Alcotest.fail "event without ph"
      in
      (match Json.member "pid" e with
      | Some (Json.Int _) -> ()
      | _ -> Alcotest.fail "event without pid");
      if ph <> "M" && ph <> "C" then begin
        (match Json.member "ts" e with
        | Some ts -> ignore (Json.to_number ts)
        | None -> Alcotest.fail "event without ts");
        let tid =
          match Json.member "tid" e with
          | Some (Json.Int t) -> t
          | _ -> Alcotest.fail "event without tid"
        in
        let d = try Hashtbl.find opens tid with Not_found -> 0 in
        if ph = "B" then Hashtbl.replace opens tid (d + 1)
        else if ph = "E" then begin
          if d <= 0 then Alcotest.failf "tid %d: E without B" tid;
          Hashtbl.replace opens tid (d - 1)
        end
      end)
    evs;
  Hashtbl.iter
    (fun tid d -> if d <> 0 then Alcotest.failf "tid %d: %d unclosed B" tid d)
    opens;
  (* anchor and per-level miss counter tracks are present *)
  let counter_names =
    List.filter_map
      (fun e ->
        match (Json.member "ph" e, Json.member "name" e) with
        | Some (Json.String "C"), Some (Json.String n) -> Some n
        | _ -> None)
      evs
  in
  Alcotest.(check bool) "anchored footprint counter" true
    (List.mem "anchored footprint" counter_names);
  Alcotest.(check bool) "L1 miss counter" true
    (List.mem "L1 misses" counter_names)

let test_json_parser () =
  (* the minimal parser handles what the writer can produce *)
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 1.5;
      Json.String "a \"quoted\"\n\ttab \\ slash";
      Json.List [ Json.Int 1; Json.List []; Json.Obj [] ];
      Json.Obj [ ("k", Json.List [ Json.Bool false; Json.Null ]) ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      if Json.parse s <> v then Alcotest.failf "round-trip failed on %s" s)
    samples;
  List.iter
    (fun bad ->
      match Json.parse bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed %S" bad)
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "1 2"; "" ]

(* ---------------------- tracing is observational -------------------- *)

let test_sb_stats_unperturbed () =
  let machine = small_machine ~top:2 () in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun mode ->
          let plain = Sb.run ~mode p machine in
          let tracer =
            Collector.create ~workers:(Pmh.n_procs machine) ()
          in
          let traced = Sb.run ~mode ~tracer p machine in
          if plain <> traced then
            Alcotest.failf "%s: stats drift under tracing" name)
        [ Sb.Coarse; Sb.Fine ])
    (small_workloads ())

let test_ws_stats_unperturbed () =
  let machine = small_machine () in
  List.iter
    (fun (name, p) ->
      let plain = Ws.run ~seed:7 p machine in
      let tracer = Collector.create ~workers:(Pmh.n_procs machine) () in
      let traced = Ws.run ~seed:7 ~tracer p machine in
      if plain <> traced then
        Alcotest.failf "%s: stats drift under tracing" name)
    (small_workloads ())

(* ------------------------- critical path --------------------------- *)

let test_critical_path_matches_span () =
  (* serial and work-stealing traces are vertex-granular and complete, so
     the trace-derived critical path must equal the analysis ND span *)
  let machine = small_machine ~top:2 () in
  List.iter
    (fun (name, p) ->
      let dag = Nd.Program.dag p in
      let span = (Nd.Analysis.analyze p).Nd.Analysis.span in
      let serial = Collector.create ~workers:1 () in
      Nd.Serial_exec.run ~tracer:serial p;
      let traced, total = Analyzer.coverage serial dag in
      Alcotest.(check int) (name ^ " serial coverage") total traced;
      Alcotest.(check int)
        (name ^ " serial critical path")
        span
        (Analyzer.critical_path serial dag);
      let ws = Collector.create ~workers:(Pmh.n_procs machine) () in
      ignore (Ws.run ~tracer:ws p machine);
      Alcotest.(check int)
        (name ^ " ws critical path")
        span
        (Analyzer.critical_path ws dag))
    (small_workloads ())

(* ------------------------ real executors --------------------------- *)

let test_dataflow_trace () =
  let w = Lcs.workload ~n:64 ~base:4 ~seed:3 () in
  let p = Workload.compile w in
  let dag = Nd.Program.dag p in
  let tracer = Collector.wallclock ~workers:2 () in
  w.Workload.reset ();
  Nd_runtime.Executor.run_dataflow ~workers:2 ~tracer p;
  Alcotest.(check (float 1e-9)) "correct result" 0. (w.Workload.check ());
  let traced, total = Analyzer.coverage tracer dag in
  Alcotest.(check int) "all strands traced" total traced;
  Alcotest.(check int) "critical path"
    ((Nd.Analysis.analyze p).Nd.Analysis.span)
    (Analyzer.critical_path tracer dag)

let test_forkjoin_trace () =
  let w = Matmul.workload ~n:16 ~base:2 ~seed:3 () in
  let p = Workload.compile w in
  let tracer = Collector.wallclock ~workers:2 () in
  w.Workload.reset ();
  Nd_runtime.Executor.run_fork_join ~workers:2 ~tracer p;
  Alcotest.(check (float 1e-9)) "correct result" 0. (w.Workload.check ());
  let n_leaves =
    List.length
      (List.filter
         (fun e ->
           match e.Event.kind with Event.Strand_begin _ -> true | _ -> false)
         (Collector.events tracer))
  in
  Alcotest.(check int) "one begin per strand leaf" 512 n_leaves

(* The fiber backend starts a task's fiber when its in-degree reaches
   zero, where the dataflow engine pushes the task: both emit one
   [Spawn] for the sources and one [Fire] per task they enable, and
   both traces give the ND span as their critical path. *)
let test_fiber_trace_matches_dataflow () =
  let w = Trs.workload ~n:32 ~base:4 ~seed:3 () in
  let p = Workload.compile w in
  let dag = Nd.Program.dag p in
  let span = (Nd.Analysis.analyze p).Nd.Analysis.span in
  List.iter
    (fun grain ->
      let g = Nd_runtime.Executor.task_graph ~grain p in
      let tasks = g.Nd_runtime.Executor.tg_tasks in
      let sources =
        Array.fold_left (fun k d -> if d = 0 then k + 1 else k) 0
          g.Nd_runtime.Executor.tg_indeg
      in
      let traced name run =
        let tracer = Collector.wallclock ~workers:2 () in
        w.Workload.reset ();
        run tracer;
        let tag = Printf.sprintf "%s grain %d: " name grain in
        Alcotest.(check (float 1e-9)) (tag ^ "correct result") 0. (w.Workload.check ());
        let spawned, fires =
          List.fold_left
            (fun (s, f) e ->
              match e.Event.kind with
              | Event.Spawn { count } -> (s + count, f)
              | Event.Fire _ -> (s, f + 1)
              | _ -> (s, f))
            (0, 0) (Collector.events tracer)
        in
        Alcotest.(check int) (tag ^ "spawned = sources") sources spawned;
        Alcotest.(check int) (tag ^ "fires = tasks - sources") (tasks - sources) fires;
        Alcotest.(check int) (tag ^ "critical path = ND span") span
          (Analyzer.critical_path tracer dag)
      in
      traced "dataflow" (fun tracer ->
          Nd_runtime.Executor.run_dataflow ~workers:2 ~grain ~tracer p);
      traced "fiber" (fun tracer ->
          ignore (Nd_runtime.Fiber_exec.run_program ~workers:2 ~grain ~tracer p)))
    [ 0; 512 ]

let () =
  Alcotest.run "nd_trace"
    [
      ( "collector",
        [
          Alcotest.test_case "null sink" `Quick test_null_sink;
          Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
          Alcotest.test_case "merge sorted" `Quick test_merge_sorted;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "serial happens-before" `Quick test_ordering_serial;
          Alcotest.test_case "ws happens-before" `Quick test_ordering_ws;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "json parser" `Quick test_json_parser;
          Alcotest.test_case "sb trace round-trips" `Quick test_chrome_roundtrip;
        ] );
      ( "observational",
        [
          Alcotest.test_case "sb stats unperturbed" `Quick test_sb_stats_unperturbed;
          Alcotest.test_case "ws stats unperturbed" `Quick test_ws_stats_unperturbed;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "critical path = ND span" `Quick
            test_critical_path_matches_span;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "dataflow trace" `Quick test_dataflow_trace;
          Alcotest.test_case "fork-join trace" `Quick test_forkjoin_trace;
          Alcotest.test_case "fiber trace = dataflow's spawns and fires" `Quick
            test_fiber_trace_matches_dataflow;
        ] );
    ]
