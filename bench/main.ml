(* The full benchmark harness.

   Part 1 regenerates every table/figure-equivalent of the paper (the
   experiment suite E1..E9 plus the inventory; see DESIGN.md for the
   experiment index and EXPERIMENTS.md for paper-vs-measured).

   Part 2 runs Bechamel micro-benchmarks: one Test.make per experiment
   family, timing the core operation each table is built from (DRS
   compilation, span analysis, Q*, the SB scheduler, the WS baseline, and
   the real multicore executors). *)

open Bechamel

(* grab the raw clock before [open Toolkit] shadows [Monotonic_clock]
   with bechamel's MEASURE wrapper of the same name *)
module Mclock = Monotonic_clock

open Toolkit
open Nd_algos

let seed = 20160215

(* ----------------------- wall-clock timing ------------------------- *)

let now_ns () = Mclock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* the records go under bench-out/, never over the committed BENCH_*.json
   of the directory the harness runs in *)
let write_record table file =
  if not (Sys.file_exists "bench-out") then Sys.mkdir "bench-out" 0o755;
  Nd_util.Table.write_json table (Filename.concat "bench-out" file)

let bechamel_tests () =
  let mm = Matmul.workload ~n:32 ~base:4 ~seed () in
  let trs = Trs.workload ~n:32 ~base:4 ~seed () in
  let lcs = Lcs.workload ~n:128 ~base:8 ~seed () in
  let p_mm = Workload.compile mm in
  let p_trs = Workload.compile trs in
  let p_lcs = Workload.compile lcs in
  let machine = Nd_pmh.Pmh.standard ~top:1 in
  mm.Workload.reset ();
  trs.Workload.reset ();
  lcs.Workload.reset ();
  Test.make_grouped ~name:"nd" ~fmt:"%s %s"
    [
      Test.make ~name:"e1.drs-compile(trs32)"
        (Staged.stage (fun () -> ignore (Workload.compile trs)));
      Test.make ~name:"e1.span(trs32)"
        (Staged.stage (fun () -> ignore (Nd_dag.Dag.span (Nd.Program.dag p_trs))));
      Test.make ~name:"e2.qstar(mm32,M=256)"
        (Staged.stage (fun () -> ignore (Nd_mem.Pcc.q_star p_mm ~m:256)));
      Test.make ~name:"e2.q1-lru(mm32,M=256)"
        (Staged.stage (fun () -> ignore (Nd_mem.Cache_sim.q1 p_mm ~m:256)));
      Test.make ~name:"e3.sb-sched(trs32)"
        (Staged.stage (fun () -> ignore (Nd_sched.Sb_sched.run p_trs machine)));
      Test.make ~name:"e5.ecc(trs32,a=0.8)"
        (Staged.stage (fun () ->
             ignore (Nd_mem.Ecc.q_hat p_trs ~m:256 ~alpha:0.8)));
      Test.make ~name:"e6.work-steal(trs32)"
        (Staged.stage (fun () ->
             ignore (Nd_sched.Work_steal.run ~seed p_trs machine)));
      Test.make ~name:"e8.race-check(mm16)"
        (Staged.stage
           (let small = Workload.compile (Matmul.workload ~n:16 ~base:2 ~seed ()) in
            fun () -> ignore (Nd_analyze.Esp_bags.race_free small)));
      Test.make ~name:"e9.serial-exec(lcs128)"
        (Staged.stage (fun () -> Nd.Serial_exec.run p_lcs));
      Test.make ~name:"e9.dataflow-exec(lcs128)"
        (Staged.stage (fun () -> Nd_runtime.Executor.run_dataflow ~workers:2 p_lcs));
      Test.make ~name:"e9.dataflow-g4096(lcs128)"
        (Staged.stage (fun () ->
             Nd_runtime.Executor.run_dataflow ~workers:2 ~grain:4096 p_lcs));
      Test.make ~name:"e9.forkjoin-exec(lcs128)"
        (Staged.stage (fun () -> Nd_runtime.Executor.run_fork_join ~workers:2 p_lcs));
    ]

let run_bechamel () =
  print_endline "== Bechamel micro-benchmarks (ns/run via OLS) ==";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (bechamel_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | Some _ | None -> ())
    results;
  List.iter
    (fun (name, est) -> Printf.printf "  %-32s %12.0f ns/run\n" name est)
    (List.sort compare !rows);
  print_newline ()

(* Where a compiled program's words go: the spine's exec set-up (the
   four programs at seed 1, compiled) with each program's vertices V,
   edges E and fire edges P, the bytes its compile allocated, those of
   them it allocated outside the minor heap (arrays of more than 256
   words, resident until a major cycle sweeps them; exact on one
   domain), and the words [Obj.reachable_words] reaches from its DAG adjacency (the
   successor CSR), its fire edges, the whole program (strand actions
   and operands included) and the workload record (spawn tree,
   operands and any reference answer it keeps), and from its leaves'
   read and write sets alone (the footprints), in 10^6-byte MB.  Run
   first, so the top heap is the set-up's alone. *)
let run_memory () =
  let table =
    Nd_util.Table.create ~title:"memory: exec's programs at seed 1 (MB)"
      [
        "program"; "V"; "E"; "P"; "compile alloc"; "compile major"; "adjacency"; "fire pairs";
        "program"; "workload"; "footprints";
      ]
  in
  (* each set counted once, the array holding them not at all *)
  let footprint_words tree =
    let rec go acc = function
      | Nd.Spawn_tree.Leaf s -> s.Nd.Strand.reads :: s.Nd.Strand.writes :: acc
      | Nd.Spawn_tree.Seq l | Nd.Spawn_tree.Par l -> List.fold_left go acc l
      | Nd.Spawn_tree.Fire { src; snk; _ } -> go (go acc src) snk
    in
    let sets = Array.of_list (go [] tree) in
    Obj.reachable_words (Obj.repr sets) - (Array.length sets + 1)
  in
  let mb words = Nd_util.Table.cell_float ~prec:1 (float_of_int (words * 8) /. 1e6) in
  let programs =
    List.mapi
      (fun i (name, n, base) ->
        let w =
          Nd_experiments.Workloads.build ~n ~base
            (Nd_experiments.Workloads.find name)
            ~seed:(1000 + i)
        in
        let before = Gc.allocated_bytes () in
        let _, promoted0, major0 = Gc.counters () in
        let p = Workload.compile w in
        let _, promoted1, major1 = Gc.counters () in
        let alloc = Gc.allocated_bytes () -. before in
        let direct = major1 -. major0 -. (promoted1 -. promoted0) in
        (Printf.sprintf "%s n=%d b=%d" name n base, alloc, direct, w, p))
      [ ("mm", 128, 8); ("trs", 128, 8); ("cholesky", 128, 8); ("lcs", 1024, 16) ]
  in
  Gc.full_major ();
  let gc = Gc.stat () in
  List.iter
    (fun (label, alloc, direct, wl, p) ->
      let dag = Nd.Program.dag p in
      let w = Nd.Program.heap_words p in
      Nd_util.Table.add_row table
        [
          label;
          Nd_util.Table.cell_int (Nd_dag.Dag.n_vertices dag);
          Nd_util.Table.cell_int (Nd_dag.Dag.n_edges dag);
          Nd_util.Table.cell_int (Nd.Program.n_fire_edges p);
          Nd_util.Table.cell_float ~prec:1 (alloc /. 1e6);
          Nd_util.Table.cell_float ~prec:1 (direct *. 8. /. 1e6);
          mb w.Nd.Program.adjacency;
          mb w.Nd.Program.fire_pairs;
          mb w.Nd.Program.program;
          mb (Obj.reachable_words (Obj.repr wl));
          mb (footprint_words wl.Workload.tree);
        ])
    programs;
  Nd_util.Table.print table;
  Printf.printf "after one set-up: live heap %s MB, top heap %s MB\n\n"
    (mb gc.Gc.live_words) (mb gc.Gc.top_heap_words)

(* the ESP-bags race detector's wall-clock scaling, up to apsp n=64 and
   fw1d n=512 (98k and 197k vertices), where a reachability closure
   would take gigabytes; test_analyze checks its verdicts against the
   exhaustive search of test/race_ref.ml *)
let run_bench3 () =
  let table =
    Nd_util.Table.create ~title:"BENCH_3: ESP-bags race detection"
      [ "algo"; "n"; "vertices"; "fire edges"; "esp ms"; "race-free" ]
  in
  List.iter
    (fun (algo, n) ->
      let fam = Nd_experiments.Workloads.find algo in
      let w = Nd_experiments.Workloads.build ~n fam ~seed in
      let p = Workload.compile w in
      let t0 = now_ns () in
      let free = Nd_analyze.Esp_bags.race_free p in
      let esp_ms = seconds_since t0 *. 1e3 in
      Nd_util.Table.add_row table
        [
          algo;
          Nd_util.Table.cell_int n;
          Nd_util.Table.cell_int (Nd_dag.Dag.n_vertices (Nd.Program.dag p));
          Nd_util.Table.cell_int (Nd.Program.n_fire_edges p);
          Nd_util.Table.cell_float ~prec:1 esp_ms;
          string_of_bool free;
        ])
    [
      ("mm", 8); ("mm", 16); ("mm", 32);
      ("fw1d", 64); ("fw1d", 128); ("fw1d", 256); ("fw1d", 512);
      ("apsp", 16); ("apsp", 32); ("apsp", 64);
    ];
  Nd_util.Table.print table;
  write_record table "BENCH_3.json"

let () =
  let t0 = now_ns () in
  (* BENCH_ONLY=e2,bench3 restricts the run to a comma-separated subset
     of sections ("memory", suite experiment names, "bench3",
     "bechamel") — lets CI fit a time budget without a separate
     harness *)
  let wanted =
    match Sys.getenv_opt "BENCH_ONLY" with
    | None | Some "" -> None
    | Some s -> Some (String.split_on_char ',' s)
  in
  let selected name =
    match wanted with None -> true | Some l -> List.mem name l
  in
  if selected "memory" then run_memory ();
  (* run every experiment; keep the E9 wall-clock table for the
     machine-readable perf trajectory *)
  List.iter
    (fun (name, f) ->
      if selected name then begin
        let table = f () in
        Nd_util.Table.print table;
        if name = "e9" then write_record table "BENCH_2.json"
      end)
    Nd_experiments.Suite.all;
  if selected "bench3" then run_bench3 ();
  if selected "bechamel" then run_bechamel ();
  Printf.printf "total bench time: %.1f s\n" (seconds_since t0)
