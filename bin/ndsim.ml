(* ndsim — command-line driver for the Nested Dataflow library:
   per-algorithm analysis, scheduler simulation, and the full experiment
   suite. *)

open Cmdliner
module Pmh = Nd_pmh.Pmh
open Nd_algos

(* Usage errors — unknown names, malformed values — all leave through
   this one door: a message plus a help pointer on stderr, exit code 2
   (matching cmdliner's own bad-flag/unknown-subcommand path, which the
   driver below also maps to 2). *)
let die_usage fmt =
  Format.kfprintf
    (fun ppf ->
      Format.fprintf ppf "Usage: run 'ndsim COMMAND --help' for details.@.";
      exit 2)
    Format.err_formatter
    ("ndsim: " ^^ fmt ^^ "@.")

let algo_arg =
  let doc =
    Printf.sprintf "Algorithm: one of %s."
      (String.concat ", " (Nd_experiments.Workloads.names ()))
  in
  Arg.(value & opt string "trs" & info [ "algo"; "a" ] ~docv:"NAME" ~doc)

let n_arg =
  Arg.(value & opt (some int) None & info [ "n"; "size" ] ~docv:"N" ~doc:"Problem size (power of two).")

let base_arg =
  Arg.(value & opt (some int) None & info [ "base"; "b" ] ~docv:"B" ~doc:"Base-case block size.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for the operands.")

let np_arg =
  Arg.(value & flag & info [ "np" ] ~doc:"Use the nested-parallel projection (fires serialized).")

let build_workload algo n base seed =
  match Nd_experiments.Workloads.find algo with
  | fam -> Nd_experiments.Workloads.build ?n ?base fam ~seed
  | exception Not_found ->
    die_usage "unknown algorithm %s; expected one of %s" algo
      (String.concat ", " (Nd_experiments.Workloads.names ()))

(* the paper-literal rule variant, for the families that have one;
   [ndsim race] and [ndsim lint] take it with --literal *)
let literal_workload algo n base seed =
  let n = Option.value n ~default:16 and base = Option.value base ~default:2 in
  match algo with
  | "mm" -> Matmul.workload ~variant:Matmul.Literal ~n ~base ~seed ()
  | "trs" -> Trs.workload ~variant:Trs.Literal ~n ~base ~seed ()
  | "lcs" -> Lcs.workload ~variant:`Literal ~n ~base ~seed ()
  | "fw1d" -> Fw1d.workload ~variant:`Literal ~n ~base ~seed ()
  | other -> die_usage "no literal variant for %s" other

let mode_of np = if np then Workload.NP else Workload.ND

(* a checked answer off by more than this, or NaN, fails the command
   with exit 1 *)
let wrong err = not (err <= 1e-6)

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Also record a trace and write it as Chrome trace_event JSON.")

let finish_trace tracer out =
  match Nd_trace.Chrome.write_file tracer out with
  | () ->
      Format.printf "trace: wrote %s (%d events%s)@." out
        (List.length (Nd_trace.Collector.events tracer))
        (let d = Nd_trace.Collector.dropped tracer in
         if d > 0 then Printf.sprintf ", %d dropped" d else "")
  | exception Sys_error msg ->
      Format.eprintf "trace: cannot write %s: %s@." out msg;
      exit 2

(* ------------------------------ span ------------------------------- *)

let span_cmd =
  let run algo n base seed =
    let w = build_workload algo n base seed in
    let pnd = Workload.compile w in
    let pnp = Workload.compile ~mode:Workload.NP w in
    Format.printf "%s n=%d base=%d@." w.Workload.name w.Workload.n w.Workload.base;
    Format.printf "  ND: %a@." Nd.Analysis.pp_report (Nd.Analysis.analyze pnd);
    Format.printf "  NP: %a@." Nd.Analysis.pp_report (Nd.Analysis.analyze pnp)
  in
  Cmd.v
    (Cmd.info "span" ~doc:"Work-span analysis of an algorithm, ND vs NP.")
    Term.(const run $ algo_arg $ n_arg $ base_arg $ seed_arg)

(* ------------------------------ race ------------------------------- *)

let race_cmd =
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Lift each race to its lowest common ancestor and print the missing-rule pedigrees.")
  in
  let variant_arg =
    Arg.(value & flag
         & info [ "literal" ]
             ~doc:"Use the paper-literal rule variant where one exists (mm, trs, lcs, fw1d).")
  in
  let run algo n base seed np explain literal =
    let w =
      if literal then literal_workload algo n base seed
      else build_workload algo n base seed
    in
    let p = Workload.compile ~mode:(mode_of np) w in
    let dag = Nd.Program.dag p in
    if explain then
      match Nd_analyze.Esp_bags.diagnose ~limit:8 p with
      | [] -> Format.printf "race-free: no rules missing@."
      | findings ->
        List.iter
          (fun f -> Format.printf "@[<v>%a@]@." (Nd.Rule_check.pp_finding p) f)
          findings;
        exit 1
    else
      match Nd_analyze.Esp_bags.find_races ~limit:16 p with
      | [] -> Format.printf "race-free (%d vertices, %d edges)@."
                (Nd_dag.Dag.n_vertices dag) (Nd_dag.Dag.n_edges dag)
      | races ->
        Format.printf "%d race(s) found:@." (List.length races);
        List.iter (fun r -> Format.printf "  %a@." (Nd_dag.Race.pp_race dag) r) races;
        exit 1
  in
  Cmd.v
    (Cmd.info "race" ~doc:"Determinacy-race check of the algorithm DAG.")
    Term.(const run $ algo_arg $ n_arg $ base_arg $ seed_arg $ np_arg
          $ explain_arg $ variant_arg)

(* ------------------------------ lint ------------------------------- *)

(* shared by lint and analyze: findings below this severity are dropped
   from the output (and from the exit-code decision) *)
let min_severity_arg =
  Arg.(value & opt string "warning"
       & info [ "min-severity" ] ~docv:"SEV"
           ~doc:"Drop findings below this severity ($(b,warning) keeps \
                 everything, $(b,error) keeps only errors).")

let strict_arg =
  Arg.(value & flag
       & info [ "strict" ]
           ~doc:"Exit 1 when any finding survives the severity filter \
                 (warnings fail the run, not just errors).")

let parse_min_severity = function
  | "warning" -> Nd_analyze.Lint.Warning
  | "error" -> Nd_analyze.Lint.Error
  | s -> die_usage "bad --min-severity %s (want warning|error)" s

let lint_cmd =
  let module Lint = Nd_analyze.Lint in
  let module Json = Nd_util.Json in
  let all_arg =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Lint every algorithm family at its smallest sweep size.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the findings as JSON on stdout.")
  in
  let variant_arg =
    Arg.(value & flag
         & info [ "literal" ]
             ~doc:"Lint the paper-literal rule variant where one exists (mm, trs, lcs, fw1d).")
  in
  let run algo n base seed all json literal strict min_severity =
    let min_severity = parse_min_severity min_severity in
    let targets =
      if all then
        List.map
          (fun fam ->
            let n = List.hd fam.Nd_experiments.Workloads.sizes in
            Nd_experiments.Workloads.build ~n fam ~seed)
          Nd_experiments.Workloads.all
      else if literal then [ literal_workload algo n base seed ]
      else [ build_workload algo n base seed ]
    in
    let results =
      List.map
        (fun w ->
          ( w,
            Lint.filter_min_severity min_severity
              (Lint.lint_all ~registry:w.Workload.registry w.Workload.tree) ))
        targets
    in
    if json then
      print_endline
        (Json.to_string
           (Json.List
              (List.map
                 (fun (w, fs) ->
                   Json.Obj
                     [
                       ("algo", Json.String w.Workload.name);
                       ("n", Json.Int w.Workload.n);
                       ("base", Json.Int w.Workload.base);
                       ("findings", Lint.to_json fs);
                     ])
                 results)))
    else
      List.iter
        (fun (w, fs) ->
          let count s = List.length (List.filter (fun f -> f.Lint.severity = s) fs) in
          Format.printf "%s n=%d base=%d: %d error(s), %d warning(s)@."
            w.Workload.name w.Workload.n w.Workload.base (count Lint.Error)
            (count Lint.Warning);
          List.iter (fun f -> Format.printf "  %a@." Lint.pp_finding f) fs)
        results;
    if List.exists (fun (_, fs) -> Lint.has_errors fs) results then exit 1;
    if strict && List.exists (fun (_, fs) -> fs <> []) results then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static analysis: fire-rule linter and ESP-bags race \
             detection (rule catalogue ND001-ND013).")
    Term.(const run $ algo_arg $ n_arg $ base_arg $ seed_arg $ all_arg
          $ json_arg $ variant_arg $ strict_arg $ min_severity_arg)

(* ----------------------------- analyze ----------------------------- *)

let analyze_cmd =
  let module Cost = Nd_analyze.Cost in
  let module Lint = Nd_analyze.Lint in
  let module Json = Nd_util.Json in
  let all_arg =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Analyze every algorithm family at its smallest sweep size.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit report, certification and findings as \
                                 JSON on stdout.")
  in
  let top_arg =
    Arg.(value & opt int 1
         & info [ "top" ] ~docv:"K"
             ~doc:"Top-level cache count of the PMH the certification and \
                   ND011/ND012 checks run against (procs = 16K).")
  in
  let no_certify_arg =
    Arg.(value & flag
         & info [ "no-certify" ]
             ~doc:"Skip the Theorem-1 certification (which replays the \
                   space-bounded scheduler); keep only the static cost \
                   report.")
  in
  let run algo n base seed np all top json no_certify strict min_severity =
    let min_severity = parse_min_severity min_severity in
    let targets =
      if all then
        List.map
          (fun fam ->
            let n = List.hd fam.Nd_experiments.Workloads.sizes in
            Nd_experiments.Workloads.build ~n fam ~seed)
          Nd_experiments.Workloads.all
      else [ build_workload algo n base seed ]
    in
    let machine = Pmh.standard ~top in
    let procs = Pmh.n_procs machine in
    (* the ND010 sweep needs only the growth trend, and the rewriting is
       linear in the fire-edge count — which explodes at the largest
       sweep sizes (mm n=64 b=2 resolves ~7M fire edges) — so three
       smallest sizes buy the asymptotic judgment at interactive cost *)
    let sweep w =
      match Nd_experiments.Workloads.find w.Workload.name with
      | fam ->
        let sizes = fam.Nd_experiments.Workloads.sizes in
        let sizes = List.filteri (fun i _ -> i < 3) sizes in
        Lint.lint_span_sweep ~subject:w.Workload.name
          ~build:(fun n ->
            let w' = Nd_experiments.Workloads.build ~n fam ~seed in
            (w'.Workload.registry, w'.Workload.tree))
          sizes
      | exception Not_found -> []
    in
    let analyze_one w =
      let p = Workload.compile ~mode:(mode_of np) w in
      let cost = Cost.of_program p in
      let has_fires =
        (not np) && Nd.Spawn_tree.fire_types w.Workload.tree <> []
      in
      let findings =
        Lint.filter_min_severity min_severity
          (Lint.lint_cost ~machine ~procs ~has_fires cost @ sweep w)
      in
      let cert =
        if no_certify then None else Some (Cost.certify_theorem1 p machine)
      in
      (w, cost, cert, findings)
    in
    let results = List.map analyze_one targets in
    if json then
      print_endline
        (Json.to_string
           (Json.List
              (List.map
                 (fun (w, cost, cert, fs) ->
                   Json.Obj
                     ([
                        ("algo", Json.String w.Workload.name);
                        ("n", Json.Int w.Workload.n);
                        ("base", Json.Int w.Workload.base);
                        ("np", Json.Bool np);
                        ("top", Json.Int top);
                        ("report", Cost.report_to_json (Cost.report cost));
                      ]
                     @ (match cert with
                       | Some c ->
                         [ ("certification", Cost.certification_to_json c) ]
                       | None -> [])
                     @ [ ("findings", Lint.to_json fs) ]))
                 results)))
    else
      List.iter
        (fun (w, cost, cert, fs) ->
          Format.printf "%s n=%d base=%d (%s, top=%d):@." w.Workload.name
            w.Workload.n w.Workload.base
            (Workload.mode_name (mode_of np))
            top;
          Format.printf "  %a@." Cost.pp_report (Cost.report cost);
          (match cert with
          | Some c -> Format.printf "  %a@." Cost.pp_certification c
          | None -> ());
          List.iter (fun f -> Format.printf "  %a@." Lint.pp_finding f) fs)
        results;
    if
      List.exists
        (fun (_, _, cert, _) ->
          match cert with Some c -> not c.Cost.certified | None -> false)
        results
    then exit 1;
    if List.exists (fun (_, _, _, fs) -> Lint.has_errors fs) results then
      exit 1;
    if strict && List.exists (fun (_, _, _, fs) -> fs <> []) results then
      exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Structural cost analysis of the compiled program: work, \
             span, peak footprint and the serial cache complexity Q*, \
             plus Theorem-1 certification (SB per-level misses <= \
             Q*(sigma*M_j)) and the asymptotic lint checks ND010-ND013.")
    Term.(const run $ algo_arg $ n_arg $ base_arg $ seed_arg $ np_arg
          $ all_arg $ top_arg $ json_arg $ no_certify_arg $ strict_arg
          $ min_severity_arg)

(* ------------------------------- sb -------------------------------- *)

let sb_cmd =
  let top_arg =
    Arg.(value & opt int 1 & info [ "top" ] ~docv:"K" ~doc:"Top-level cache count (procs = 16K).")
  in
  let fine_arg =
    Arg.(value & flag & info [ "fine" ] ~doc:"Fine-grained cross-anchor readiness (E7 ablation).")
  in
  let sim_workers_arg =
    Arg.(value & opt (some int) None
         & info [ "sim-workers" ] ~docv:"W"
             ~doc:"Decoupled measurement mode: schedule under rho costs, then \
                   replay the recorded access trace against per-cache LRU \
                   simulators sharded across $(docv) domains (bit-identical \
                   at every count), and also print the per-(level,cache) \
                   miss table.  Without it SB charges rho costs inline.")
  in
  let run algo n base seed np top fine sim_workers trace_out =
    let w = build_workload algo n base seed in
    let p = Workload.compile ~mode:(mode_of np) w in
    let machine = Pmh.standard ~top in
    let tracer =
      match trace_out with
      | None -> Nd_trace.Collector.null
      | Some _ -> Nd_trace.Collector.create ~workers:(Pmh.n_procs machine) ()
    in
    let mode = if fine then Nd_sched.Sb_sched.Fine else Nd_sched.Sb_sched.Coarse in
    Option.iter
      (fun w -> if w < 1 then die_usage "--sim-workers %d: must be >= 1" w)
      sim_workers;
    Format.printf "machine: %s@." (Pmh.describe machine);
    let s = Nd_sched.Sb_sched.run ~mode ?sim_workers ~tracer p machine in
    Format.printf "SB(%s,%s%s): %a@."
      (Workload.mode_name (mode_of np))
      (if fine then "fine" else "coarse")
      (match sim_workers with
      | Some w -> Printf.sprintf ",sim-workers=%d" w
      | None -> "")
      Nd_sched.Sb_sched.pp_stats s;
    (match (sim_workers, s.Nd_sched.Sb_sched.miss_table) with
    | Some _, Some mt ->
      (* deterministic per-cache table, so CI can diff worker counts *)
      Format.printf "miss table: %a@." Nd_mem.Miss_table.pp mt
    | _ -> ());
    Option.iter (finish_trace tracer) trace_out
  in
  Cmd.v
    (Cmd.info "sb" ~doc:"Simulate the space-bounded scheduler on a PMH.")
    Term.(const run $ algo_arg $ n_arg $ base_arg $ seed_arg $ np_arg $ top_arg
          $ fine_arg $ sim_workers_arg $ trace_out_arg)

(* ------------------------------ sched ------------------------------ *)

let sched_cmd =
  let top_arg =
    Arg.(value & opt int 1 & info [ "top" ] ~docv:"K" ~doc:"Top-level cache count (procs = 16K).")
  in
  let scheduler_arg =
    let doc =
      Printf.sprintf "Scheduler: one of %s."
        (String.concat ", " Nd_sched.Zoo.names)
    in
    Arg.(value & opt string "sb" & info [ "scheduler"; "s" ] ~docv:"NAME" ~doc)
  in
  let comm_arg =
    Arg.(value & opt int 0
         & info [ "comm-delay" ] ~docv:"D"
             ~doc:"Extra time units charged when a vertex is dispatched on a \
                   processor while one of its predecessors ran on another \
                   (honoured by the pdf and tree dispatch loops).")
  in
  let run algo n base seed np scheduler top comm_delay =
    match Nd_sched.Zoo.find scheduler with
    | None ->
      die_usage "unknown scheduler %s; expected one of %s" scheduler
        (String.concat ", " Nd_sched.Zoo.names)
    | Some (module S : Nd_sched.Scheduler.S) ->
      let w = build_workload algo n base seed in
      let p = Workload.compile ~mode:(mode_of np) w in
      let machine = Pmh.standard ~top in
      Format.printf "machine: %s@." (Pmh.describe machine);
      let s = S.run ~seed ~comm_delay p machine in
      Format.printf "%s: %a@." S.name Nd_sched.Scheduler.pp_stats s
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:"Simulate any scheduler-zoo member on a PMH (the E10 comparison, \
             one scheduler at a time).")
    Term.(const run $ algo_arg $ n_arg $ base_arg $ seed_arg $ np_arg
          $ scheduler_arg $ top_arg $ comm_arg)

(* ------------------------------ check ------------------------------ *)

let check_cmd =
  let run algo n base seed np trace_out =
    let w = build_workload algo n base seed in
    let p = Workload.compile ~mode:(mode_of np) w in
    let tracer =
      match trace_out with
      | None -> Nd_trace.Collector.null
      | Some _ -> Nd_trace.Collector.create ~workers:1 ()
    in
    w.Workload.reset ();
    Nd.Serial_exec.run ~rng:(Nd_util.Prng.create (seed + 1)) ~tracer p;
    let err = w.Workload.check () in
    Format.printf "%s n=%d: randomized-order execution error = %g@."
      w.Workload.name w.Workload.n err;
    Option.iter (finish_trace tracer) trace_out;
    if wrong err then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Execute in a randomized dependency order and compare with the serial \
             reference; exit 1 when the answer is off by more than 1e-6 or NaN.")
    Term.(const run $ algo_arg $ n_arg $ base_arg $ seed_arg $ np_arg $ trace_out_arg)

(* ------------------------------- drs ------------------------------- *)

let drs_cmd =
  let run () =
    (* the paper's Figure 3-4 worked example *)
    let strand l =
      Nd.Spawn_tree.leaf
        (Nd.Strand.make ~label:l ~work:1 ~reads:Nd_util.Interval_set.empty
           ~writes:Nd_util.Interval_set.empty ())
    in
    let f = Nd.Spawn_tree.seq [ strand "A"; strand "B" ] in
    let g = Nd.Spawn_tree.seq [ strand "C"; strand "D" ] in
    let main = Nd.Spawn_tree.fire ~rule:"FG" f g in
    let reg =
      Nd.Fire_rule.define Nd.Fire_rule.empty_registry "FG"
        [ Nd.Fire_rule.rule [ 1 ] Nd.Fire_rule.Full [ 1 ] ]
    in
    let p = Nd.Program.compile ~registry:reg main in
    let dag = Nd.Program.dag p in
    Format.printf "MAIN = F ~FG~> G with F = A;B, G = C;D and +<1> ; -<1> (paper Fig. 3-4)@.";
    Format.printf "spawn tree: %a@." Nd.Spawn_tree.pp main;
    Format.printf "algorithm DAG edges:@.";
    let { Nd_dag.Dag.succ_off; succ_tgt; _ } = Nd_dag.Dag.csr dag in
    for v = 0 to Nd_dag.Dag.n_vertices dag - 1 do
      for k = succ_off.(v) to succ_off.(v + 1) - 1 do
        Format.printf "  %s -> %s@." (Nd_dag.Dag.label dag v)
          (Nd_dag.Dag.label dag succ_tgt.(k))
      done
    done;
    Format.printf "span = %d (A before C; B parallel to C,D)@."
      (Nd_dag.Dag.span dag)
  in
  Cmd.v
    (Cmd.info "drs" ~doc:"Show the DRS on the paper's MAIN/F/G example (Figures 3-4).")
    Term.(const run $ const ())

(* ------------------------------ trace ------------------------------- *)

let trace_cmd =
  let sched_arg =
    Arg.(value & opt string "sb"
         & info [ "sched" ] ~docv:"SCHED"
             ~doc:"Execution path to trace: $(b,sb), $(b,ws), $(b,serial), \
                   $(b,dataflow), $(b,forkjoin) or $(b,fiber).")
  in
  let out_arg =
    Arg.(value & opt string "trace.json"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Output file for the Chrome trace_event JSON (load in \
                   chrome://tracing or ui.perfetto.dev).")
  in
  let top_arg =
    Arg.(value & opt int 1 & info [ "top" ] ~docv:"K" ~doc:"Top-level cache count (procs = 16K).")
  in
  let fine_arg =
    Arg.(value & flag & info [ "fine" ] ~doc:"Fine-grained cross-anchor readiness (SB only).")
  in
  let workers_arg =
    Arg.(value & opt (some int) None
         & info [ "workers"; "w" ] ~docv:"W"
             ~doc:"Worker domains for the real executors (dataflow/forkjoin).")
  in
  let grain_arg =
    Arg.(value & opt (some int) None
         & info [ "grain" ] ~docv:"G"
             ~doc:"Leaf-coarsening work threshold for the real executors: \
                   program subtrees with total work <= G run serially on one \
                   worker (0 or omitted: vertex granularity).")
  in
  let run algo n base seed np sched top fine workers grain out =
    let w = build_workload algo n base seed in
    let p = Workload.compile ~mode:(mode_of np) w in
    let dag = Nd.Program.dag p in
    let machine = Pmh.standard ~top in
    let sb_mode =
      if fine then Nd_sched.Sb_sched.Fine else Nd_sched.Sb_sched.Coarse
    in
    (* [err] is 0 for the simulated schedulers, which compute nothing *)
    let tracer, vertex_granular, err =
      match sched with
      | "serial" ->
        let t = Nd_trace.Collector.create ~workers:1 () in
        w.Workload.reset ();
        Nd.Serial_exec.run ~tracer:t p;
        (t, true, 0.)
      | "sb" ->
        let t = Nd_trace.Collector.create ~workers:(Pmh.n_procs machine) () in
        Format.printf "machine: %s@." (Pmh.describe machine);
        let s = Nd_sched.Sb_sched.run ~mode:sb_mode ~tracer:t p machine in
        Format.printf "SB: %a@." Nd_sched.Sb_sched.pp_stats s;
        (t, false, 0.)
      | "ws" ->
        let t = Nd_trace.Collector.create ~workers:(Pmh.n_procs machine) () in
        Format.printf "machine: %s@." (Pmh.describe machine);
        let s, steals = Nd_sched.Work_steal.run ~seed ~tracer:t p machine in
        Format.printf "WS: %a steals=%d@." Nd_sched.Scheduler.pp_stats s steals;
        (t, true, 0.)
      | "dataflow" ->
        let nw =
          match workers with
          | Some w -> max 1 w
          | None -> Nd_runtime.Executor.default_workers ()
        in
        let t = Nd_trace.Collector.wallclock ~workers:nw () in
        w.Workload.reset ();
        Nd_runtime.Executor.run_dataflow ~workers:nw ?grain ~tracer:t p;
        let err = w.Workload.check () in
        Format.printf "dataflow: workers=%d max err=%g@." nw err;
        (t, true, err)
      | "forkjoin" ->
        let nw =
          match workers with
          | Some w -> max 1 w
          | None -> Nd_runtime.Executor.default_workers ()
        in
        let t = Nd_trace.Collector.wallclock ~workers:nw () in
        w.Workload.reset ();
        Nd_runtime.Executor.run_fork_join ~workers:nw ?grain ~tracer:t p;
        let err = w.Workload.check () in
        Format.printf "forkjoin: workers=%d max err=%g@." nw err;
        (t, true, err)
      | "fiber" ->
        let nw =
          match workers with
          | Some w -> max 1 w
          | None -> Nd_runtime.Executor.default_workers ()
        in
        let t = Nd_trace.Collector.wallclock ~workers:nw () in
        w.Workload.reset ();
        let s = Nd_runtime.Fiber_exec.run_program ~workers:nw ?grain ~tracer:t p in
        let err = w.Workload.check () in
        Format.printf
          "fiber: workers=%d fibers=%d suspensions=%d steals=%d \
           peak_blocked=%d max err=%g@."
          nw s.Nd_runtime.Fiber_exec.fibers s.Nd_runtime.Fiber_exec.suspensions
          s.Nd_runtime.Fiber_exec.steals s.Nd_runtime.Fiber_exec.peak_blocked
          err;
        (t, true, err)
      | other ->
        die_usage
          "unknown scheduler %s (want sb|ws|serial|dataflow|forkjoin|fiber)"
          other
    in
    finish_trace tracer out;
    print_string (Nd_trace.Summary.to_string tracer);
    if vertex_granular then begin
      let cp = Nd_trace.Analyzer.critical_path tracer dag in
      let span = (Nd.Analysis.analyze p).Nd.Analysis.span in
      let traced, total = Nd_trace.Analyzer.coverage tracer dag in
      Format.printf
        "trace-derived critical path = %d; analysis ND span = %d (%s, strand coverage %d/%d)@."
        cp span
        (if cp = span then "match" else "MISMATCH")
        traced total
    end;
    if wrong err then exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Record a structured trace of a scheduler run and export it as \
             Chrome trace_event JSON plus a per-worker summary; a real \
             executor (dataflow, forkjoin, fiber) exits 1 when its answer \
             is off by more than 1e-6 or NaN.")
    Term.(const run $ algo_arg $ n_arg $ base_arg $ seed_arg $ np_arg
          $ sched_arg $ top_arg $ fine_arg $ workers_arg $ grain_arg $ out_arg)

(* ------------------------------ suite ------------------------------- *)

let suite_cmd =
  let which =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"EXP" ~doc:"Experiment (overview, e1..e12); all when omitted.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"DIR"
             ~doc:"Also write one machine-readable JSON file per experiment \
                   into DIR, plus timings.json with per-phase wall-clock.")
  in
  let workers_arg =
    Arg.(value & opt (some int) None
         & info [ "workers"; "w" ] ~docv:"W"
             ~doc:"Worker domains running experiments concurrently (default: \
                   \\$(b,NDSIM_WORKERS) or the core count, capped at 8).")
  in
  let run which json workers =
    let known name = List.mem_assoc name Nd_experiments.Suite.all in
    match (which, json) with
    | Some name, _ when not (known name) ->
      die_usage "unknown experiment %s" name
    | Some name, None -> Nd_experiments.Suite.run name
    | Some name, Some dir -> (
      try Nd_experiments.Suite.run_json ~dir name
      with Sys_error msg | Unix.Unix_error (Unix.ENOENT, _, msg) ->
        Format.eprintf "suite: cannot write into %s: %s@." dir msg;
        exit 2)
    | None, None -> Nd_experiments.Suite.run_all ?workers ()
    | None, Some dir -> (
      try Nd_experiments.Suite.run_all_json ?workers ~dir ()
      with Sys_error msg | Unix.Unix_error (Unix.ENOENT, _, msg) ->
        Format.eprintf "suite: cannot write into %s: %s@." dir msg;
        exit 2)
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:"Run the experiment suite (experiments in parallel across worker \
             domains), optionally emitting machine-readable JSON (one file \
             per experiment plus per-phase timings).")
    Term.(const run $ which $ json_arg $ workers_arg)

(* ------------------------------ fuzz ------------------------------- *)

let fuzz_cmd =
  let count_arg =
    Arg.(value & opt int 100
         & info [ "count"; "c" ] ~docv:"N" ~doc:"Number of generated programs.")
  in
  let fuzz_seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Base seed; case $(i) uses SEED + $(i), so any failure is \
                   replayable in isolation.")
  in
  let depth_arg =
    Arg.(value & opt int Nd_check.Gen.default_params.max_depth
         & info [ "max-depth" ] ~docv:"D"
             ~doc:"Generator recursion depth bound (affects generation: \
                   replay with the same value).")
  in
  let replay_arg =
    Arg.(value & opt (some int) None
         & info [ "replay" ] ~docv:"SEED"
             ~doc:"Re-run the single case at SEED verbosely and exit.")
  in
  let workers_arg =
    Arg.(value & opt (some int) None
         & info [ "workers" ] ~docv:"W"
             ~doc:"Override the real-executor worker sweep with just W.")
  in
  let failures_arg =
    Arg.(value & opt (some string) None
         & info [ "failures-file" ] ~docv:"FILE"
             ~doc:"Append each failing seed to FILE (for CI artifacts).")
  in
  let run count seed max_depth replay workers failures_file =
    let params = { Nd_check.Gen.default_params with max_depth } in
    let workers = Option.map (fun w -> [ w ]) workers in
    let still_fails s =
      match Nd_check.Oracle.check_spec ?workers s with
      | Ok _ -> false
      | Error _ -> true
    in
    let report_failure ~seed spec failure =
      Format.printf "@.seed %d FAILED: %a@." seed Nd_check.Oracle.pp_failure
        failure;
      let shrunk = Nd_check.Gen.shrink spec ~still_fails in
      let shrunk_failure =
        match Nd_check.Oracle.check_spec ?workers shrunk with
        | Error f -> f
        | Ok _ -> failure
        (* shrinking raced a flaky check; show the original *)
      in
      Format.printf "shrunk program (%d leaves, still fails with [%s]):@.%a@."
        (Nd_check.Gen.n_leaves shrunk)
        shrunk_failure.Nd_check.Oracle.stage Nd_check.Gen.pp shrunk;
      Format.printf "replay: ndsim fuzz --replay %d%s@." seed
        (if max_depth <> Nd_check.Gen.default_params.max_depth then
           Printf.sprintf " --max-depth %d" max_depth
         else "");
      match failures_file with
      | None -> ()
      | Some file ->
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
        Printf.fprintf oc "%d\n" seed;
        close_out oc
    in
    match replay with
    | Some seed -> (
      let spec = Nd_check.Gen.generate ~seed ~params () in
      Format.printf "seed %d generates:@.%a@." seed Nd_check.Gen.pp spec;
      match Nd_check.Oracle.check_spec ?workers spec with
      | Ok r ->
        Format.printf
          "ok: %d vertices, %d leaves, work=%d span=%d, race_free=%b, %d \
           paths agree@."
          r.n_vertices r.n_leaves r.work r.span r.race_free r.paths
      | Error f ->
        report_failure ~seed spec f;
        exit 1)
    | None ->
      let failed = ref 0 and race_free = ref 0 and paths = ref 0 in
      for i = 0 to count - 1 do
        let case_seed = seed + i in
        let spec = Nd_check.Gen.generate ~seed:case_seed ~params () in
        (match Nd_check.Oracle.check_spec ?workers spec with
        | Ok r ->
          if r.race_free then incr race_free;
          paths := !paths + r.paths
        | Error f ->
          incr failed;
          report_failure ~seed:case_seed spec f);
        if (i + 1) mod 100 = 0 then
          Format.printf "  %d/%d cases, %d failures@." (i + 1) count !failed
      done;
      Format.printf
        "fuzz: %d programs (seeds %d..%d), %d race-free, %d execution paths \
         checked, %d failures@."
        count seed (seed + count - 1) !race_free !paths !failed;
      if !failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Generative conformance fuzzing: random ND programs through the \
             cross-executor differential oracle (serial, greedy, \
             space-bounded, work-stealing, real dataflow/fork-join), with \
             shrinking and per-seed replay.")
    Term.(const run $ count_arg $ fuzz_seed_arg $ depth_arg $ replay_arg
          $ workers_arg $ failures_arg)

(* ------------------------------- run -------------------------------- *)

let run_cmd =
  let module Backend = Nd_runtime.Backend in
  let backend_arg =
    let doc =
      Printf.sprintf
        "Real-executor backend: one of %s.  $(b,fiber) runs each task as \
         an effect-handler fiber started once its dependences are met; \
         only a promise awaited inside a strand action parks it."
        (String.concat ", " Backend.names)
    in
    Arg.(value & opt string "dataflow" & info [ "backend" ] ~docv:"B" ~doc)
  in
  let workers_arg =
    Arg.(value & opt (some int) None
         & info [ "workers"; "w" ] ~docv:"W"
             ~doc:"Worker domains (default: \\$(b,NDSIM_WORKERS) or the core \
                   count).")
  in
  let grain_arg =
    Arg.(value & opt int 0
         & info [ "grain" ] ~docv:"G"
             ~doc:"Leaf-coarsening work threshold: program subtrees with \
                   total work <= G run serially on one worker (0: vertex \
                   granularity).")
  in
  let run algo n base seed np backend workers grain =
    match Backend.find backend with
    | None ->
      die_usage "unknown backend %s; expected one of %s" backend
        (String.concat ", " Backend.names)
    | Some (module B : Backend.S) ->
      let w = build_workload algo n base seed in
      let p = Workload.compile ~mode:(mode_of np) w in
      let nw =
        match workers with
        | Some w -> max 1 w
        | None -> Nd_runtime.Executor.default_workers ()
      in
      w.Workload.reset ();
      let t0 = Unix.gettimeofday () in
      let fiber_stats =
        if String.equal B.name "fiber" then
          Some (Nd_runtime.Fiber_exec.run_program ~workers:nw ~grain p)
        else begin
          B.run ~workers:nw ~grain p;
          None
        end
      in
      let dt = Unix.gettimeofday () -. t0 in
      let err = w.Workload.check () in
      Format.printf "%s %s n=%d base=%d: workers=%d grain=%d %.4fs max err=%g@."
        B.name w.Workload.name w.Workload.n w.Workload.base nw grain dt err;
      (match fiber_stats with
      | None -> ()
      | Some s ->
        Format.printf
          "fiber: %d fibers, %d completed, %d suspensions, %d steals, peak \
           blocked %d@."
          s.Nd_runtime.Fiber_exec.fibers s.Nd_runtime.Fiber_exec.completed
          s.Nd_runtime.Fiber_exec.suspensions s.Nd_runtime.Fiber_exec.steals
          s.Nd_runtime.Fiber_exec.peak_blocked);
      if wrong err then exit 1
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute an algorithm on a real multicore backend (forkjoin, \
             dataflow, or the effects-based fiber scheduler) and report \
             wall-clock time plus the numerical check; exit 1 when the \
             answer is off by more than 1e-6 or NaN.")
    Term.(const run $ algo_arg $ n_arg $ base_arg $ seed_arg $ np_arg
          $ backend_arg $ workers_arg $ grain_arg)

(* ------------------------------ serve ------------------------------ *)

let socket_arg =
  Arg.(value & opt string "/tmp/ndsim.sock"
       & info [ "socket"; "s" ] ~docv:"ADDR"
           ~doc:"Server address: a unix socket path, or $(b,HOST:PORT) for \
                 TCP.")

let serve_cmd =
  let module Server = Nd_serve.Server in
  let max_frame_arg =
    Arg.(value & opt int Nd_util.Json.Frame.default_max_frame
         & info [ "max-frame" ] ~docv:"BYTES"
             ~doc:"Reject request frames above this payload size.")
  in
  let quiet_arg = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No banner.") in
  let run addr max_frame quiet =
    let cfg =
      {
        (Server.default_config (Nd_serve.Protocol.addr_of_string addr)) with
        Server.max_frame = max 1024 max_frame;
        quiet;
      }
    in
    match Server.run cfg with
    | () -> ()
    | exception Unix.Unix_error (e, _, arg) ->
      Format.eprintf "ndsim serve: cannot listen on %s: %s (%s)@." addr
        (Unix.error_message e) arg;
      exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the analysis daemon: lint/race/analyze/simulate/fuzz/suite \
             requests over length-prefixed JSON frames, run as \
             effect-handler fibers on one shared worker pool with keyed \
             artifact caches.  The pool has $(b,NDSIM_WORKERS) workers \
             (default: the core count, capped at 8), started only as \
             concurrent requests need them; request kinds have no \
             reserved workers.  Send a $(b,{\"kind\":\"shutdown\"}) \
             request (or SIGINT) to stop.")
    Term.(const run $ socket_arg $ max_frame_arg $ quiet_arg)

(* ----------------------------- loadgen ----------------------------- *)

let loadgen_cmd =
  let module Loadgen = Nd_serve.Loadgen in
  let module P = Nd_serve.Protocol in
  let clients_arg =
    Arg.(value & opt int 4
         & info [ "clients"; "c" ] ~docv:"N" ~doc:"Concurrent closed-loop clients.")
  in
  let duration_arg =
    Arg.(value & opt float 10.
         & info [ "duration"; "d" ] ~docv:"S" ~doc:"Run length in seconds.")
  in
  let pipeline_arg =
    Arg.(value & opt int 8
         & info [ "pipeline" ] ~docv:"W"
             ~doc:"Requests in flight per connection (1 = strict \
                   request/response lockstep).")
  in
  let mix_arg =
    Arg.(value & opt string "lint=2,sim=1,race=1"
         & info [ "mix" ] ~docv:"MIX"
             ~doc:"Weighted request mix: comma/colon-separated \
                   $(b,kind=weight) tokens over ping, lint, race, analyze, \
                   sim, stats (e.g. $(b,lint:sim:race)).")
  in
  let lg_algo_arg =
    Arg.(value & opt string "mm"
         & info [ "algo"; "a" ] ~docv:"NAME" ~doc:"Workload the requests hit.")
  in
  let lg_n_arg =
    Arg.(value & opt int 16 & info [ "n"; "size" ] ~docv:"N" ~doc:"Problem size.")
  in
  let lg_base_arg =
    Arg.(value & opt int 4 & info [ "base"; "b" ] ~docv:"B" ~doc:"Base-case size.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the BENCH_5 latency/throughput JSON to FILE.")
  in
  let shutdown_arg =
    Arg.(value & flag
         & info [ "shutdown" ]
             ~doc:"Send a shutdown request to the server after the run \
                   (clean daemon exit for CI).")
  in
  let run addr clients duration pipeline mix algo n base seed json_out
      shutdown =
    let mix =
      match Loadgen.parse_mix mix with
      | m -> m
      | exception Failure msg -> die_usage "%s" msg
    in
    let spec =
      {
        Loadgen.addr = P.addr_of_string addr;
        clients;
        duration;
        pipeline = max 1 pipeline;
        mix;
        wk = { P.algo; n = Some n; base = Some base; seed; np = false };
        top = 1;
      }
    in
    (* --duration 0 skips the load phase: with --shutdown that makes a
       pure "stop the daemon" invocation *)
    let r =
      if duration <= 0. then None
      else
        match Loadgen.run spec with
        | r -> Some r
        | exception Unix.Unix_error (e, _, _) ->
          Format.eprintf "ndsim loadgen: cannot reach %s: %s@." addr
            (Unix.error_message e);
          exit 1
    in
    (match r with
    | None -> ()
    | Some r ->
      Nd_util.Table.print (Loadgen.table r);
      (match json_out with
      | None -> ()
      | Some file ->
        let oc = open_out file in
        Nd_util.Json.to_channel oc (Loadgen.to_json spec r);
        close_out oc;
        Format.printf "wrote %s@." file));
    if shutdown then begin
      match Nd_serve.Client.connect spec.Loadgen.addr with
      | conn ->
        (try
           ignore (Nd_serve.Client.call_exn conn P.Shutdown);
           Format.printf "server acknowledged shutdown@."
         with e ->
           Format.eprintf "shutdown request failed: %s@."
             (Printexc.to_string e));
        Nd_serve.Client.close conn
      | exception Unix.Unix_error _ ->
        Format.eprintf "shutdown request failed: server unreachable@."
    end;
    match r with
    | Some r when r.Loadgen.failures > 0 -> exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Closed-loop load generator against $(b,ndsim serve): N client \
             connections keep a pipeline window of weighted \
             lint/sim/race/ping requests in flight for a fixed duration, \
             then report per-kind latency percentiles and total \
             throughput (the BENCH_5 numbers).")
    Term.(const run $ socket_arg $ clients_arg $ duration_arg $ pipeline_arg
          $ mix_arg $ lg_algo_arg $ lg_n_arg $ lg_base_arg $ seed_arg
          $ json_arg $ shutdown_arg)

let () =
  let doc = "Nested Dataflow model: analysis, simulation and experiments" in
  let info = Cmd.info "ndsim" ~version:"1.0.0" ~doc in
  let code =
    Cmd.eval
      (Cmd.group info
         [ span_cmd; race_cmd; lint_cmd; analyze_cmd; sb_cmd; sched_cmd;
           check_cmd; drs_cmd; trace_cmd; suite_cmd;
           fuzz_cmd; run_cmd; serve_cmd; loadgen_cmd ])
  in
  (* cmdliner reports CLI misuse — unknown subcommand, bad flag — as
     its [cli_error] code (124) after printing usage on stderr; fold it
     onto the conventional 2 so every usage error, cmdliner-detected or
     [die_usage], exits identically *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
