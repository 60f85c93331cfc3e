(* Quickstart: the ND model in 80 lines.

   We write the paper's introductory example (Figures 3-4) by hand — a
   program MAIN = F ~FG~> G where F = A;B and G = C;D and the fire rule
   says only "A before C" — compile it with the DRS, analyze it, check it
   for determinacy races and execute it.  Then we do the same for a real
   algorithm (triangular solve) using the packaged workloads.

   Run with: dune exec examples/quickstart.exe *)

module Is = Nd_util.Interval_set
open Nd

let () =
  (* -------- 1. a hand-written ND program -------- *)
  let cell = Is.interval 0 1 in
  let strand label action =
    Spawn_tree.leaf
      (Strand.make ~label ~work:1 ~reads:cell ~writes:cell
         ~action:(fun () -> print_string action)
         ())
  in
  let f = Spawn_tree.seq [ strand "A" "A"; strand "B" "B" ] in
  let g = Spawn_tree.seq [ strand "C" "C"; strand "D" "D" ] in
  let main = Spawn_tree.fire ~rule:"FG" f g in
  (* the fire rule: the first subtask of the source must precede the
     first subtask of the sink — and nothing else *)
  let registry =
    Fire_rule.define Fire_rule.empty_registry "FG"
      [ Fire_rule.rule [ 1 ] Fire_rule.Full [ 1 ] ]
  in
  let program = Program.compile ~registry main in
  Format.printf "spawn tree:      %a@." Spawn_tree.pp main;
  Format.printf "work-span (ND):  %a@." Analysis.pp_report (Analysis.analyze program);
  Format.printf "work-span (NP):  %a@." Analysis.pp_report
    (Analysis.np_of ~registry main);
  (* span is 3 in the ND model (A;C;D chain) vs 4 when the fire is
     serialized (A;B;C;D) *)
  print_string "execution order: ";
  Serial_exec.run program;
  print_newline ();

  (* -------- 2. a real algorithm: triangular solve -------- *)
  let w = Nd_algos.Trs.workload ~n:32 ~base:4 ~seed:7 () in
  let p = Nd_algos.Workload.compile w in
  Format.printf "@.TRS n=32: %a@." Analysis.pp_report (Analysis.analyze p);
  let racy = Nd_dag.Race.find_races ~limit:1 (Program.dag p) <> [] in
  print_endline
    (if racy then "TRS DAG has races (bug!)"
     else "TRS DAG is determinacy-race free");
  w.Nd_algos.Workload.reset ();
  Nd_runtime.Executor.run_dataflow p;
  let err = w.Nd_algos.Workload.check () in
  Format.printf "dataflow execution error vs serial reference: %g@." err;
  if racy || err <> 0. then exit 1
