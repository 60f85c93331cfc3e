module Table = Nd_util.Table
module Stats = Nd_util.Stats
module Pmh = Nd_pmh.Pmh
module Cost = Nd_analyze.Cost
open Nd_algos

let seed = 20160215 (* the paper's arXiv date *)

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let sim_machine ~top_caches =
  Pmh.create ~root_fanout:top_caches
    [
      { Pmh.size = 64; fanout = 1; miss_cost = 2 };
      { Pmh.size = 512; fanout = 4; miss_cost = 8 };
      { Pmh.size = 4096; fanout = 4; miss_cost = 32 };
    ]

let compile_both w =
  (Workload.compile ~mode:Workload.ND w, Workload.compile ~mode:Workload.NP w)

let fit_exponent pairs =
  let xs = List.map (fun (n, _) -> float_of_int n) pairs in
  let ys = List.map (fun (_, s) -> float_of_int s) pairs in
  let e, _, _ = Stats.power_fit xs ys in
  e

(* ------------------------------ E1 --------------------------------- *)

let e1_span () =
  let t =
    Table.create ~title:"E1: span, NP vs ND (Section 3; Figs. 1 and 8)"
      [ "algo"; "n"; "work"; "span ND"; "span NP"; "NP/ND"; "ND/n" ]
  in
  List.iter
    (fun fam ->
      if fam.Workloads.name <> "mm8" then begin
        let nd_points = ref [] and np_points = ref [] in
        List.iter
          (fun n ->
            let w = Workloads.build ~n fam ~seed in
            let pnd, pnp = compile_both w in
            let rnd = Nd.Analysis.analyze pnd and rnp = Nd.Analysis.analyze pnp in
            nd_points := (n, rnd.Nd.Analysis.span) :: !nd_points;
            np_points := (n, rnp.Nd.Analysis.span) :: !np_points;
            Table.add_row t
              [
                fam.Workloads.name;
                Table.cell_int n;
                Table.cell_int rnd.Nd.Analysis.work;
                Table.cell_int rnd.Nd.Analysis.span;
                Table.cell_int rnp.Nd.Analysis.span;
                Table.cell_float ~prec:2
                  (float_of_int rnp.Nd.Analysis.span
                  /. float_of_int rnd.Nd.Analysis.span);
                Table.cell_float ~prec:2
                  (float_of_int rnd.Nd.Analysis.span /. float_of_int n);
              ])
          fam.Workloads.sizes;
        Table.add_row t
          [
            fam.Workloads.name;
            "fit";
            "";
            Printf.sprintf "n^%.2f" (fit_exponent !nd_points);
            Printf.sprintf "n^%.2f" (fit_exponent !np_points);
            "";
            "";
          ]
      end)
    Workloads.all;
  t

(* ------------------------------ E2 --------------------------------- *)

let e2_pcc () =
  let t =
    Table.create ~title:"E2: parallel cache complexity Q* (Claim 1)"
      [ "algo"; "n"; "M"; "Q*"; "Q*/shape"; "Q1"; "Q1/Q*" ]
  in
  let dense = [ "mm"; "trs"; "cholesky"; "lu" ] in
  let quad = [ "lcs"; "fw1d" ] in
  let do_algo ?base name n ms shape shape_name =
    let fam = Workloads.find name in
    let w = Workloads.build ~n ?base fam ~seed in
    let p = Workload.compile w in
    List.iter
      (fun m ->
        let q = Nd_mem.Pcc.q_star p ~m in
        let q1 = Nd_mem.Cache_sim.q1 p ~m in
        Table.add_row t
          [
            name;
            Table.cell_int n;
            Table.cell_int m;
            Table.cell_int q;
            Printf.sprintf "%.3f %s" (float_of_int q /. shape n m) shape_name;
            Table.cell_int q1;
            Table.cell_float ~prec:2 (float_of_int q1 /. float_of_int q);
          ])
      ms
  in
  let dense_shape n m = float_of_int n ** 3. /. sqrt (float_of_int m) in
  (* our table-based LCS/FW1D have Q* = Theta(n^2) + boundary term; the
     paper's O(n^2/M) presumes the frontier formulation (EXPERIMENTS.md) *)
  let quad_shape n _m = float_of_int (n * n) in
  List.iter (fun a -> do_algo a 64 [ 16; 64; 256; 1024 ] dense_shape "*n^3/sqrt(M)") dense;
  do_algo "apsp" 32 [ 16; 64; 256 ] dense_shape "*n^3/sqrt(M)";
  List.iter (fun a -> do_algo a 256 [ 64; 256; 1024; 4096 ] quad_shape "*n^2 (table)") quad;
  (* paper-scale rows: a coarser leaf block keeps the spawn tree
     tractable at n=512 while the interval-granular LRU keeps the q1
     column cheap (per-row, not per-word) *)
  do_algo ~base:32 "mm" 512 [ 256; 1024; 4096 ] dense_shape "*n^3/sqrt(M)";
  do_algo ~base:4 "apsp" 64 [ 16; 64; 256 ] dense_shape "*n^3/sqrt(M)";
  List.iter
    (fun a -> do_algo ~base:4 a 512 [ 256; 1024; 4096 ] quad_shape "*n^2 (table)")
    quad;
  t

(* ------------------------------ E3 --------------------------------- *)

let e3_misses () =
  let t =
    Table.create
      ~title:"E3: SB per-level misses vs the Theorem-1 bound Q*(sigma*M_j)"
      [ "algo"; "model"; "level"; "misses"; "Q*(sM_j)"; "ratio" ]
  in
  let machine = sim_machine ~top_caches:1 in
  let sigma = 1. /. 3. in
  List.iter
    (fun (name, n, base) ->
      let fam = Workloads.find name in
      let w = Workloads.build ~n ~base fam ~seed in
      List.iter
        (fun mode ->
          let p = Workload.compile ~mode w in
          let s = Nd_sched.Sb_sched.run ~sigma p machine in
          for level = 1 to Pmh.n_levels machine do
            let m =
              max 1 (int_of_float (sigma *. float_of_int (Pmh.size machine ~level)))
            in
            let bound = Nd_mem.Pcc.q_star p ~m in
            Table.add_row t
              [
                Printf.sprintf "%s n=%d" name n;
                Workload.mode_name mode;
                Table.cell_int level;
                Table.cell_int s.Nd_sched.Sb_sched.misses.(level - 1);
                Table.cell_int bound;
                Table.cell_float ~prec:3
                  (float_of_int s.Nd_sched.Sb_sched.misses.(level - 1)
                  /. float_of_int bound);
              ]
          done)
        [ Workload.ND; Workload.NP ])
    [
      ("mm", 64, 4); ("trs", 64, 4); ("cholesky", 64, 4); ("lcs", 256, 2);
      ("fw1d", 256, 2); ("mm", 512, 32); ("fw1d", 512, 4);
    ];
  t

(* ------------------------------ E4 --------------------------------- *)

let e4_scaling () =
  let t =
    Table.create
      ~title:
        "E4: SB time / perfect-balance bound (Eq. 22) vs processors, ND vs NP"
      [ "algo"; "procs"; "perfect"; "time ND"; "time NP"; "ND/perf"; "NP/perf" ]
  in
  let sigma = 1. /. 3. in
  List.iter
    (fun (name, n, base) ->
      let fam = Workloads.find name in
      let w = Workloads.build ~n ~base fam ~seed in
      let pnd, pnp = compile_both w in
      List.iter
        (fun top ->
          let machine = sim_machine ~top_caches:top in
          let snd_ = Nd_sched.Sb_sched.run ~sigma pnd machine in
          let snp = Nd_sched.Sb_sched.run ~sigma pnp machine in
          let perfect =
            (float_of_int snd_.Nd_sched.Sb_sched.work
            /. float_of_int (Pmh.n_procs machine))
            +. Pmh.perfect_time machine ~sigma
                 ~q_star:(fun m -> Nd_mem.Pcc.q_star pnd ~m)
          in
          Table.add_row t
            [
              name;
              Table.cell_int (Pmh.n_procs machine);
              Table.cell_float ~prec:0 perfect;
              Table.cell_int snd_.Nd_sched.Sb_sched.time;
              Table.cell_int snp.Nd_sched.Sb_sched.time;
              Table.cell_float ~prec:2
                (float_of_int snd_.Nd_sched.Sb_sched.time /. perfect);
              Table.cell_float ~prec:2
                (float_of_int snp.Nd_sched.Sb_sched.time /. perfect);
            ])
        [ 1; 2; 4; 8 ])
    [
      ("mm", 64, 2); ("trs", 64, 2); ("cholesky", 64, 2); ("lcs", 512, 4);
      ("fw1d", 512, 4);
    ];
  t

(* ------------------------------ E5 --------------------------------- *)

let e5_alpha () =
  let t =
    Table.create
      ~title:"E5: empirical parallelizability alpha_max (Claims 2-3), c=2"
      [ "algo"; "model"; "M=64"; "M=256"; "M=1024" ]
  in
  List.iter
    (fun (name, n, base) ->
      let fam = Workloads.find name in
      let w = Workloads.build ~n ~base fam ~seed in
      List.iter
        (fun mode ->
          let p = Workload.compile ~mode w in
          let cell m =
            Table.cell_float ~prec:3 (Nd_mem.Ecc.parallelizability p ~m ~c:2.)
          in
          Table.add_row t
            [ name; Workload.mode_name mode; cell 64; cell 256; cell 1024 ])
        [ Workload.ND; Workload.NP ])
    [
      (* base 8 at n=512: the ECC search is the costliest metric in the
         suite, and the alpha_max estimate is stable under the leaf size *)
      ("mm", 64, 2); ("trs", 64, 2); ("cholesky", 64, 2); ("lcs", 512, 8);
      ("fw1d", 512, 8);
    ];
  t

(* ------------------------------ E6 --------------------------------- *)

let e6_work_stealing () =
  let t =
    Table.create
      ~title:
        "E6: SB (rho and LRU accounting) vs randomized work stealing (LRU)"
      [
        "algo"; "SB-rho time"; "SB-lru time"; "WS time"; "SB-rho misscost";
        "SB-lru misscost"; "WS misscost"; "steals";
      ]
  in
  let machine = sim_machine ~top_caches:1 in
  List.iter
    (fun (name, n, base) ->
      let fam = Workloads.find name in
      let w = Workloads.build ~n ~base fam ~seed in
      let p = Workload.compile w in
      let sb = Nd_sched.Sb_sched.run p machine in
      let sbl = Nd_sched.Sb_sched.run ~accounting:Nd_sched.Sb_sched.Lru p machine in
      let ws, steals = Nd_sched.Work_steal.run ~seed p machine in
      Table.add_row t
        [
          Printf.sprintf "%s n=%d" name n;
          Table.cell_int sb.Nd_sched.Sb_sched.time;
          Table.cell_int sbl.Nd_sched.Sb_sched.time;
          Table.cell_int ws.Nd_sched.Scheduler.time;
          Table.cell_int sb.Nd_sched.Sb_sched.miss_cost;
          Table.cell_int sbl.Nd_sched.Sb_sched.miss_cost;
          Table.cell_int ws.Nd_sched.Scheduler.miss_cost;
          Table.cell_int steals;
        ])
    [
      ("mm", 64, 4); ("trs", 64, 4); ("cholesky", 64, 4); ("lcs", 256, 2);
      ("fw1d", 256, 2); ("mm", 512, 32); ("fw1d", 512, 4);
    ];
  t

(* ------------------------------ E7 --------------------------------- *)

let e7_ablation () =
  let t =
    Table.create
      ~title:"E7: coarse (Fig. 12) vs fine cross-anchor readiness (ND)"
      [ "algo"; "time coarse"; "time fine"; "fine/coarse"; "anchors" ]
  in
  let machine = sim_machine ~top_caches:2 in
  List.iter
    (fun (name, n) ->
      let fam = Workloads.find name in
      let w = Workloads.build ~n fam ~seed in
      let p = Workload.compile w in
      let c = Nd_sched.Sb_sched.run ~mode:Nd_sched.Sb_sched.Coarse p machine in
      let f = Nd_sched.Sb_sched.run ~mode:Nd_sched.Sb_sched.Fine p machine in
      Table.add_row t
        [
          name;
          Table.cell_int c.Nd_sched.Sb_sched.time;
          Table.cell_int f.Nd_sched.Sb_sched.time;
          Table.cell_float ~prec:3
            (float_of_int f.Nd_sched.Sb_sched.time
            /. float_of_int c.Nd_sched.Sb_sched.time);
          Table.cell_int c.Nd_sched.Sb_sched.n_anchors;
        ])
    [ ("mm", 32); ("trs", 64); ("cholesky", 64); ("lcs", 256); ("fw1d", 256) ];
  t

(* ------------------------------ E8 --------------------------------- *)

let e8_rules () =
  let t =
    Table.create
      ~title:
        "E8: determinacy races, paper-literal vs corrected rule sets (n=16)"
      [ "algo"; "variant"; "races"; "exec err (random order)" ]
  in
  let check name w =
    let algo, variant =
      match String.index_opt name '/' with
      | Some i ->
        ( String.sub name 0 i,
          String.sub name (i + 1) (String.length name - i - 1) )
      | None -> (name, "corrected")
    in
    let p = Workload.compile w in
    let races = Nd_analyze.Esp_bags.find_races ~limit:64 p in
    w.Workload.reset ();
    Nd.Serial_exec.run ~rng:(Nd_util.Prng.create 99) p;
    Table.add_row t
      [
        algo;
        variant;
        Table.cell_int (List.length races);
        Printf.sprintf "%.3g" (w.Workload.check ());
      ]
  in
  let pairs =
    [
      ("mm/literal", Matmul.workload ~variant:Matmul.Literal ~n:16 ~base:2 ~seed ());
      ("mm/safe", Matmul.workload ~variant:Matmul.Safe ~n:16 ~base:2 ~seed ());
      ("trs/literal", Trs.workload ~variant:Trs.Literal ~n:16 ~base:2 ~seed ());
      ("trs/corrected", Trs.workload ~variant:Trs.Corrected ~n:16 ~base:2 ~seed ());
      ("lcs/literal", Lcs.workload ~variant:`Literal ~n:16 ~base:2 ~seed ());
      ("lcs/corrected", Lcs.workload ~variant:`Corrected ~n:16 ~base:2 ~seed ());
      ("fw1d/literal", Fw1d.workload ~variant:`Literal ~n:16 ~base:2 ~seed ());
      ("fw1d/corrected", Fw1d.workload ~variant:`Corrected ~n:16 ~base:2 ~seed ());
      ("cholesky", Cholesky.workload ~n:16 ~base:2 ~seed ());
      ("apsp", Fw2d.workload ~n:16 ~base:2 ~seed ());
      ("lu", Lu.workload ~n:16 ~base:2 ~seed ());
    ]
  in
  List.iter (fun (name, w) -> check name w) pairs;
  t

(* ------------------------------ E9 --------------------------------- *)

let time_it f =
  let t0 = now_ns () in
  f ();
  seconds_since t0

let e9_runtime () =
  let workers = Nd_runtime.Executor.default_workers () in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E9: multicore wall-clock (workers=%d), serial vs ND dataflow vs NP \
            fork-join vs fiber"
           workers)
      [
        "algo"; "n"; "grain"; "serial s"; "ND s"; "NP s"; "fiber s";
        "speedup ND"; "max err";
      ]
  in
  List.iter
    (fun (name, n, base, grain) ->
      let fam = Workloads.find name in
      let w = fam.Workloads.build ~n ~base ~seed in
      let p = Workload.compile w in
      (* min of two runs per executor; reset before every run because the
         workloads accumulate into their output matrices *)
      let best exec =
        let one () =
          w.Workload.reset ();
          time_it (fun () -> exec p)
        in
        let t1 = one () in
        let t2 = one () in
        (Float.min t1 t2, w.Workload.check ())
      in
      let ts, e0 = best (fun p -> Nd.Serial_exec.run p) in
      let tnd, e1 = best (Nd_runtime.Executor.run_dataflow ~workers ~grain) in
      let tnp, e2 = best (Nd_runtime.Executor.run_fork_join ~workers ~grain) in
      let tfb, e3 = best (Nd_runtime.Fiber_exec.run ~workers ~grain) in
      Table.add_row t
        [
          name;
          Table.cell_int n;
          Table.cell_int grain;
          Table.cell_float ~prec:4 ts;
          Table.cell_float ~prec:4 tnd;
          Table.cell_float ~prec:4 tnp;
          Table.cell_float ~prec:4 tfb;
          Table.cell_float ~prec:2 (ts /. tnd);
          Printf.sprintf "%.3g"
            (Float.max (Float.max e0 e1) (Float.max e2 e3));
        ])
    [
      ("mm", 128, 16, 0);
      ("mm", 128, 16, 8192);
      ("mm", 256, 16, 8192);
      ("trs", 128, 16, 0);
      ("trs", 128, 16, 8192);
      ("cholesky", 128, 16, 0);
      ("cholesky", 128, 16, 8192);
      ("lcs", 512, 32, 0);
      ("lcs", 512, 32, 4096);
      ("fw1d", 256, 8, 0);
      ("fw1d", 256, 8, 4096);
    ];
  t

(* ------------------------------ E10 -------------------------------- *)

let e10_zoo () =
  let t =
    Table.create
      ~title:
        "E10: scheduler zoo — greedy / sb / ws / pdf / tree, every family at \
         paper scale (shared per-cache LRU miss model)"
      ([ "algo"; "sched" ] @ Nd_sched.Scheduler.row_header)
  in
  let machine = sim_machine ~top_caches:1 in
  List.iter
    (fun (name, n, base) ->
      let fam = Workloads.find name in
      let w = Workloads.build ~n ~base fam ~seed in
      let p = Workload.compile w in
      List.iter
        (fun (sname, (module S : Nd_sched.Scheduler.S)) ->
          let s = S.run ~seed p machine in
          Table.add_row t
            (Printf.sprintf "%s n=%d" name n
            :: sname
            :: Nd_sched.Scheduler.to_row s))
        Nd_sched.Zoo.all)
    (* every workload family; paper scale is n=512 for the quadratic-work
       algorithms and n=64 for the cubic ones, with the same coarsened
       leaf blocks as E2-E6 to keep the spawn trees tractable *)
    [
      ("mm", 512, 32); ("mm8", 64, 4); ("trs", 64, 4); ("cholesky", 64, 4);
      ("lu", 64, 4); ("apsp", 64, 4); ("fw1d", 512, 4); ("stencil", 512, 4);
      ("gotoh", 512, 4); ("lcs", 512, 4);
    ];
  t

(* ------------------------------ E11 -------------------------------- *)

let e11_sharded_sim () =
  let t =
    Table.create
      ~title:
        "E11: sharded cache simulation — SB replay measurement, serial vs \
         sharded (8 workers), sigma sweep; per-cache tables bit-identical"
      [
        "algo"; "sigma"; "path"; "time"; "miss cost"; "misses"; "seconds";
        "miss identical";
      ]
  in
  let machine = sim_machine ~top_caches:1 in
  let misses_str s =
    String.concat ";"
      (Array.to_list (Array.map string_of_int s.Nd_sched.Sb_sched.misses))
  in
  List.iter
    (fun (name, n, base) ->
      let fam = Workloads.find name in
      let w = Workloads.build ~n ~base fam ~seed in
      let p = Workload.compile w in
      List.iter
        (fun sigma ->
          let timed workers =
            let t0 = now_ns () in
            let s = Nd_sched.Sb_sched.run ~sigma ~sim_workers:workers p machine in
            (s, seconds_since t0)
          in
          let serial, serial_s = timed 1 in
          let sharded, sharded_s = timed 8 in
          let table st =
            match st.Nd_sched.Sb_sched.miss_table with
            | Some mt -> mt
            | None -> failwith "E11: replay run returned no miss table"
          in
          let identical = Nd_mem.Miss_table.equal (table serial) (table sharded) in
          (* the load-bearing acceptance check: a merge that dropped or
             double-counted a shard either raised already (inside
             replay) or diverges here — fail the whole suite run *)
          if not identical then
            failwith
              (Printf.sprintf
                 "E11: %s n=%d sigma=%.2f: sharded tables diverge from serial"
                 name n sigma);
          let row label st secs ident =
            Table.add_row t
              [
                Printf.sprintf "%s n=%d" name n;
                Table.cell_float ~prec:2 sigma;
                label;
                Table.cell_int st.Nd_sched.Sb_sched.time;
                Table.cell_int st.Nd_sched.Sb_sched.miss_cost;
                misses_str st;
                Table.cell_float ~prec:3 secs;
                ident;
              ]
          in
          row "serial" serial serial_s "-";
          row "sharded w=8" sharded sharded_s (string_of_bool identical))
        [ 0.2; 1. /. 3.; 0.6; 1.0 ])
    [ ("mm", 512, 32); ("fw1d", 512, 4) ];
  t

(* ------------------------------ E12 -------------------------------- *)

let e12_cost () =
  let t =
    Table.create
      ~title:
        "E12: structural cost analysis and Theorem-1 certification (SB \
         misses <= Q*(sigma*M_j)) at paper scale"
      [
        "algo"; "work"; "span"; "peak fp"; "root size"; "level"; "m";
        "misses"; "Q*(sM_j)"; "certified";
      ]
  in
  let machine = sim_machine ~top_caches:1 in
  let sigma = 1. /. 3. in
  List.iter
    (fun (name, n, base) ->
      let fam = Workloads.find name in
      let w = Workloads.build ~n ~base fam ~seed in
      let p = Workload.compile w in
      let r = Cost.report (Cost.of_program p) in
      let c = Cost.certify_theorem1 ~sigma p machine in
      (* the load-bearing acceptance check: every row of the shipped
         table is a certified Theorem-1 instance or the suite run fails *)
      if not c.Cost.certified then
        failwith
          (Printf.sprintf "E12: %s n=%d: Theorem 1 violated:\n%s" name n
             (Format.asprintf "%a" Cost.pp_certification c));
      List.iter
        (fun (l : Cost.level_check) ->
          Table.add_row t
            [
              Printf.sprintf "%s n=%d b=%d" name n base;
              Table.cell_int r.Cost.work;
              Table.cell_int r.Cost.span;
              Table.cell_int r.Cost.peak_footprint;
              Table.cell_int r.Cost.root_size;
              Table.cell_int l.Cost.level;
              Table.cell_int l.Cost.m;
              Table.cell_int l.Cost.misses;
              Table.cell_int l.Cost.bound;
              string_of_bool (l.Cost.misses <= l.Cost.bound);
            ])
        c.Cost.levels)
    (* every workload family at the E10 paper scales, plus the mm/apsp
       n=512 base=16 rows and their ~98k-vertex DAGs *)
    [
      ("mm", 512, 32); ("mm", 512, 16); ("mm8", 64, 4); ("trs", 64, 4);
      ("cholesky", 64, 4); ("lu", 64, 4); ("apsp", 64, 4);
      ("apsp", 512, 16); ("fw1d", 512, 4); ("stencil", 512, 4);
      ("gotoh", 512, 4); ("lcs", 512, 4);
    ];
  t

(* ---------------------------- overview ----------------------------- *)

let overview () =
  let t =
    Table.create ~title:"Overview: the algorithms at their default sizes"
      [ "algo"; "n"; "leaves"; "vertices"; "edges"; "work"; "span ND"; "span NP" ]
  in
  List.iter
    (fun fam ->
      let w = Workloads.build fam ~seed in
      let pnd, pnp = compile_both w in
      let r = Nd.Analysis.analyze pnd in
      Table.add_row t
        [
          fam.Workloads.name;
          Table.cell_int w.Workload.n;
          Table.cell_int r.Nd.Analysis.n_leaves;
          Table.cell_int r.Nd.Analysis.n_vertices;
          Table.cell_int r.Nd.Analysis.n_edges;
          Table.cell_int r.Nd.Analysis.work;
          Table.cell_int r.Nd.Analysis.span;
          Table.cell_int (Nd.Analysis.analyze pnp).Nd.Analysis.span;
        ])
    Workloads.all;
  t

let all =
  [
    ("overview", overview);
    ("e1", e1_span);
    ("e2", e2_pcc);
    ("e3", e3_misses);
    ("e4", e4_scaling);
    ("e5", e5_alpha);
    ("e6", e6_work_stealing);
    ("e7", e7_ablation);
    ("e8", e8_rules);
    ("e9", e9_runtime);
    ("e10", e10_zoo);
    ("e11", e11_sharded_sim);
    ("e12", e12_cost);
  ]

(* ---------------------------- drivers ------------------------------ *)

type timing = { name : string; seconds : float }

let resolve_workers workers =
  match workers with
  | Some w -> max 1 w
  | None -> Nd_runtime.Executor.default_workers ()

let build_all ?workers ?(tracer = Nd_trace.Collector.null) () =
  let exps = Array.of_list all in
  let n = Array.length exps in
  let tables = Array.make n None in
  let secs = Array.make n 0. in
  let traced = Nd_trace.Collector.enabled tracer in
  (* experiments are independent (each compiles its own programs and
     workload state), so they run as one parallel_for; builders return
     their tables without printing, and the caller prints in suite order
     so output never interleaves *)
  Nd_runtime.Executor.parallel_for ?workers n (fun wid i ->
      let name, f = exps.(i) in
      if traced then
        Nd_trace.Collector.emit_now tracer ~worker:wid
          (Nd_trace.Event.Strand_begin { vertex = i; work = 0; label = name });
      let t0 = now_ns () in
      let table = f () in
      secs.(i) <- seconds_since t0;
      if traced then
        Nd_trace.Collector.emit_now tracer ~worker:wid
          (Nd_trace.Event.Strand_end { vertex = i });
      tables.(i) <- Some table);
  let tables =
    Array.map (function Some t -> t | None -> assert false) tables
  in
  let timings =
    List.mapi
      (fun i (name, _) -> { name; seconds = secs.(i) })
      (Array.to_list exps)
  in
  (tables, timings)

let timing_table ~workers timings =
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Suite wall-clock per experiment (workers=%d)" workers)
      [ "experiment"; "seconds" ]
  in
  List.iter
    (fun { name; seconds } ->
      Table.add_row t [ name; Table.cell_float ~prec:3 seconds ])
    timings;
  Table.add_row t
    [
      "total";
      Table.cell_float ~prec:3
        (List.fold_left (fun acc x -> acc +. x.seconds) 0. timings);
    ];
  t

let run name = Table.print ((List.assoc name all) ())

let run_all ?workers ?tracer () =
  let nw = resolve_workers workers in
  let tables, timings = build_all ~workers:nw ?tracer () in
  Array.iter Table.print tables;
  Table.print (timing_table ~workers:nw timings)

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Suite: %s exists and is not a directory" dir)

let run_json ~dir name =
  ensure_dir dir;
  let t = (List.assoc name all) () in
  Table.print t;
  Table.write_json t (Filename.concat dir (name ^ ".json"))

let run_all_json ?workers ?tracer ~dir () =
  ensure_dir dir;
  let nw = resolve_workers workers in
  let tables, timings = build_all ~workers:nw ?tracer () in
  Array.iteri
    (fun i table ->
      let name, _ = List.nth all i in
      Table.print table;
      Table.write_json table (Filename.concat dir (name ^ ".json")))
    tables;
  let tt = timing_table ~workers:nw timings in
  Table.print tt;
  Table.write_json tt (Filename.concat dir "timings.json")
