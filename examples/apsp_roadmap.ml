(* All-pairs shortest paths on a random road network with the
   Gaussian-elimination-paradigm Floyd–Warshall in the ND model, plus a
   look at how the space-bounded scheduler would place it on a 3-level
   parallel memory hierarchy.

   Run with: dune exec examples/apsp_roadmap.exe *)

open Nd_algos
module Pmh = Nd_pmh.Pmh

let n = 32

let () =
  let w = Fw2d.workload ~n ~base:4 ~seed:90125 () in
  let p = Workload.compile w in
  Format.printf "APSP on a %d-node network: %a@." n Nd.Analysis.pp_report
    (Nd.Analysis.analyze p);
  w.Workload.reset ();
  Nd_runtime.Executor.run_dataflow p;
  Format.printf "dataflow execution error vs classic Floyd-Warshall: %g@."
    (w.Workload.check ());

  (* what would this cost on a hierarchy?  simulate the SB scheduler *)
  let machine = Pmh.standard ~top:1 in
  Format.printf "@.machine: %s@." (Pmh.describe machine);
  let s = Nd_sched.Sb_sched.run p machine in
  Format.printf "space-bounded schedule: %a@." Nd_sched.Sb_sched.pp_stats s;
  for level = 1 to Pmh.n_levels machine do
    let m = max 1 (Pmh.size machine ~level / 3) in
    Format.printf "  level %d: misses %d <= Q*(M/3) = %d (Theorem 1)@." level
      s.Nd_sched.Sb_sched.misses.(level - 1)
      (Nd_mem.Pcc.q_star p ~m)
  done
