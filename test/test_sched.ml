module Pmh = Nd_pmh.Pmh
module Sb = Nd_sched.Sb_sched
module Ws = Nd_sched.Work_steal
module Greedy = Nd_sched.Greedy
module Scheduler = Nd_sched.Scheduler
open Nd_algos

let small_machine ?(top = 1) () =
  Pmh.create ~root_fanout:top
    [
      { Pmh.size = 64; fanout = 1; miss_cost = 2 };
      { Pmh.size = 512; fanout = 2; miss_cost = 8 };
      { Pmh.size = 4096; fanout = 2; miss_cost = 32 };
    ]

let workloads () =
  [
    ("mm", Workload.compile (Matmul.workload ~n:16 ~base:2 ~seed:1 ()));
    ("trs", Workload.compile (Trs.workload ~n:16 ~base:2 ~seed:1 ()));
    ("cholesky", Workload.compile (Cholesky.workload ~n:16 ~base:2 ~seed:1 ()));
    ("lu", Workload.compile (Lu.workload ~n:16 ~base:2 ~seed:1 ()));
    ("lcs", Workload.compile (Lcs.workload ~n:64 ~base:2 ~seed:1 ()));
    ("fw1d", Workload.compile (Fw1d.workload ~n:64 ~base:2 ~seed:1 ()));
    ("apsp", Workload.compile (Fw2d.workload ~n:16 ~base:2 ~seed:1 ()));
  ]

(* ----------------------------- greedy ------------------------------ *)

let test_greedy_brent () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun procs ->
          let s = Greedy.run ~procs p in
          if s.Scheduler.time > Greedy.brent_bound s then
            Alcotest.failf "%s p=%d: %d > Brent %d" name procs s.Scheduler.time
              (Greedy.brent_bound s);
          if s.Scheduler.time < s.Scheduler.span then
            Alcotest.failf "%s: time below span" name;
          if s.Scheduler.time < (s.Scheduler.work + procs - 1) / procs then
            Alcotest.failf "%s: time below work/p" name)
        [ 1; 2; 4; 16 ])
    (workloads ())

let test_greedy_serial_is_work () =
  let _, p = List.hd (workloads ()) in
  let s = Greedy.run ~procs:1 p in
  Alcotest.(check int) "T_1 = work" s.Scheduler.work s.Scheduler.time

(* ------------------------------- SB -------------------------------- *)

let test_sb_completes_all () =
  let machine = small_machine () in
  List.iter
    (fun (name, p) ->
      let s = Sb.run p machine in
      if s.Sb.time <= 0 then Alcotest.failf "%s: no time" name;
      if s.Sb.busy < s.Sb.work then Alcotest.failf "%s: lost work" name)
    (workloads ())

let test_sb_theorem1 () =
  (* misses at level j <= Q*(t; sigma * M_j) for every level, both modes *)
  let machine = small_machine ~top:2 () in
  let sigma = 1. /. 3. in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun mode ->
          let s = Sb.run ~sigma ~mode p machine in
          for level = 1 to Pmh.n_levels machine do
            let m =
              max 1
                (int_of_float (sigma *. float_of_int (Pmh.size machine ~level)))
            in
            let bound = Nd_mem.Pcc.q_star p ~m in
            if s.Sb.misses.(level - 1) > bound then
              Alcotest.failf "%s level %d: misses %d > Q* %d" name level
                s.Sb.misses.(level - 1) bound
          done)
        [ Sb.Coarse; Sb.Fine ])
    (workloads ())

let test_sb_deterministic () =
  let machine = small_machine () in
  let _, p = List.nth (workloads ()) 1 in
  let a = Sb.run p machine and b = Sb.run p machine in
  Alcotest.(check int) "time" a.Sb.time b.Sb.time;
  Alcotest.(check int) "anchors" a.Sb.n_anchors b.Sb.n_anchors

let test_sb_serial_machine () =
  (* a 1-processor flat machine runs serially: time = work + miss cost *)
  let machine = Pmh.flat ~procs:1 ~m:64 ~miss_cost:3 in
  let _, p = List.hd (workloads ()) in
  let s = Sb.run p machine in
  Alcotest.(check int) "serial time" (s.Sb.work + s.Sb.miss_cost) s.Sb.time

let test_sb_misses_mode_invariant () =
  (* the rho-model miss counts depend only on the decomposition, not on
     readiness mode or the NP/ND distinction *)
  let machine = small_machine () in
  let w = Trs.workload ~n:16 ~base:2 ~seed:1 () in
  let pnd = Workload.compile w in
  let pnp = Workload.compile ~mode:Workload.NP w in
  let a = Sb.run pnd machine and b = Sb.run pnp machine in
  Alcotest.(check (array int)) "ND vs NP misses" a.Sb.misses b.Sb.misses

let test_sb_nd_not_slower () =
  (* the paper's claim at its crispest: with enough processors the ND
     program schedules at least as fast as its NP projection *)
  let machine = small_machine ~top:2 () in
  List.iter
    (fun (name, w) ->
      let pnd = Workload.compile w in
      let pnp = Workload.compile ~mode:Workload.NP w in
      let tnd = (Sb.run pnd machine).Sb.time in
      let tnp = (Sb.run pnp machine).Sb.time in
      if tnd > tnp then Alcotest.failf "%s: ND %d slower than NP %d" name tnd tnp)
    [
      ("trs", Trs.workload ~n:32 ~base:2 ~seed:1 ());
      ("lcs", Lcs.workload ~n:128 ~base:2 ~seed:1 ());
      ("cholesky", Cholesky.workload ~n:32 ~base:2 ~seed:1 ());
    ]

let test_sb_fine_not_slower () =
  (* fine-grained readiness only adds schedulable work *)
  let machine = small_machine ~top:2 () in
  List.iter
    (fun (name, p) ->
      let c = (Sb.run ~mode:Sb.Coarse p machine).Sb.time in
      let f = (Sb.run ~mode:Sb.Fine p machine).Sb.time in
      if f > c then Alcotest.failf "%s: fine %d > coarse %d" name f c)
    (workloads ())

let test_sb_lru_accounting () =
  (* LRU accounting captures cross-task reuse the rho model gives up, so
     its miss counts never exceed rho's at any level *)
  let machine = small_machine () in
  List.iter
    (fun (name, p) ->
      let rho = Sb.run p machine in
      let lru = Sb.run ~accounting:Sb.Lru p machine in
      for j = 0 to Pmh.n_levels machine - 1 do
        if lru.Sb.misses.(j) > rho.Sb.misses.(j) then
          Alcotest.failf "%s level %d: LRU %d > rho %d" name (j + 1)
            lru.Sb.misses.(j) rho.Sb.misses.(j)
      done)
    (workloads ())

(* --------------------- sharded replay measurement ------------------ *)

let miss_table_of name s =
  match s.Sb.miss_table with
  | Some t -> t
  | None -> Alcotest.failf "%s: expected a miss table" name

let test_sb_replay_workers_identical () =
  (* decoupled measurement mode: the replayed per-cache tables (and
     their level totals and cost) are bit-identical at every sim-worker
     count, while the schedule itself is unchanged *)
  let machine = small_machine ~top:2 () in
  List.iter
    (fun (name, p) ->
      let base = Sb.run ~sim_workers:1 p machine in
      let bt = miss_table_of name base in
      List.iter
        (fun w ->
          let s = Sb.run ~sim_workers:w p machine in
          Alcotest.(check int) (Printf.sprintf "%s w=%d: time" name w)
            base.Sb.time s.Sb.time;
          Alcotest.(check (array int))
            (Printf.sprintf "%s w=%d: level misses" name w)
            base.Sb.misses s.Sb.misses;
          Alcotest.(check int)
            (Printf.sprintf "%s w=%d: miss cost" name w)
            base.Sb.miss_cost s.Sb.miss_cost;
          if not (Nd_mem.Miss_table.equal bt (miss_table_of name s)) then
            Alcotest.failf "%s w=%d: miss table differs from w=1's" name w)
        [ 2; 8 ])
    (workloads ())

let test_sb_replay_schedule_is_rho () =
  (* sim_workers changes only the measurement: the drive loop charges
     rho costs, so time/busy/anchors equal a plain Rho run *)
  let machine = small_machine () in
  List.iter
    (fun (name, p) ->
      let rho = Sb.run p machine in
      let rep = Sb.run ~sim_workers:2 p machine in
      Alcotest.(check int) (name ^ ": time") rho.Sb.time rep.Sb.time;
      Alcotest.(check int) (name ^ ": busy") rho.Sb.busy rep.Sb.busy;
      Alcotest.(check int) (name ^ ": anchors") rho.Sb.n_anchors
        rep.Sb.n_anchors)
    (workloads ())

let test_sb_replay_single_proc_matches_inline () =
  (* with one processor the atom order is duration-independent, so the
     recorded trace equals the inline execution order and the replayed
     tables must coincide with inline Lru accounting exactly *)
  let machine =
    Pmh.create ~root_fanout:1
      [
        { Pmh.size = 64; fanout = 1; miss_cost = 2 };
        { Pmh.size = 512; fanout = 1; miss_cost = 8 };
      ]
  in
  List.iter
    (fun (name, p) ->
      let inl = Sb.run ~accounting:Sb.Lru p machine in
      let rep = Sb.run ~sim_workers:4 p machine in
      Alcotest.(check (array int)) (name ^ ": misses") inl.Sb.misses
        rep.Sb.misses;
      Alcotest.(check int) (name ^ ": miss cost") inl.Sb.miss_cost
        rep.Sb.miss_cost;
      if
        not
          (Nd_mem.Miss_table.equal (miss_table_of name inl)
             (miss_table_of name rep))
      then Alcotest.failf "%s: replay table differs from inline LRU" name)
    (workloads ())

(* --------------------------- work stealing ------------------------- *)

let test_ws_completes () =
  let machine = small_machine () in
  List.iter
    (fun (name, p) ->
      let s, _ = Ws.run p machine in
      if s.Scheduler.time <= 0 then Alcotest.failf "%s: no time" name;
      if s.Scheduler.busy < s.Scheduler.work then
        Alcotest.failf "%s: lost work" name)
    (workloads ())

let test_ws_deterministic_per_seed () =
  let machine = small_machine () in
  let _, p = List.nth (workloads ()) 4 in
  let a, _ = Ws.run ~seed:7 p machine and b, _ = Ws.run ~seed:7 p machine in
  Alcotest.(check int) "same seed, same time" a.Scheduler.time b.Scheduler.time

let test_ws_single_proc_no_steals () =
  let machine = Pmh.flat ~procs:1 ~m:64 ~miss_cost:3 in
  let _, p = List.hd (workloads ()) in
  let _, steals = Ws.run p machine in
  Alcotest.(check int) "no steals" 0 steals

(* regression: a zero-time (or zero-processor) run used to report a
   utilization of 1.0 (0/0 short-circuited to "perfect"); it must be 0. *)
let test_utilization_degenerate () =
  let sb_zero =
    {
      Sb.time = 0;
      work = 0;
      misses = [||];
      miss_cost = 0;
      space_hwm = 0;
      busy = 0;
      n_anchors = 0;
      n_procs = 4;
      miss_table = None;
    }
  in
  Alcotest.(check (float 0.)) "sb zero time" 0. (Sb.utilization sb_zero);
  Alcotest.(check (float 0.)) "sb zero procs" 0.
    (Sb.utilization { sb_zero with Sb.time = 10; n_procs = 0 });
  let ws_zero =
    {
      Scheduler.time = 0;
      work = 0;
      span = 0;
      misses = [||];
      miss_cost = 0;
      space_hwm = 0;
      busy = 0;
      n_procs = 4;
      miss_table = Some (Nd_mem.Miss_table.create ~n_caches:[| 1 |]);
    }
  in
  Alcotest.(check (float 0.)) "ws zero time" 0. (Scheduler.utilization ws_zero);
  Alcotest.(check (float 0.)) "ws zero procs" 0.
    (Scheduler.utilization { ws_zero with Scheduler.time = 10; n_procs = 0 });
  (* a real run still reports a meaningful positive utilization *)
  let machine = small_machine () in
  let _, p = List.hd (workloads ()) in
  let s = Sb.run p machine in
  let u = Sb.utilization s in
  Alcotest.(check bool) "real run in (0,1]" true (u > 0. && u <= 1.)

(* ------------------------------- zoo -------------------------------- *)

module Zoo = Nd_sched.Zoo

let test_zoo_registry () =
  Alcotest.(check (list string))
    "names" [ "greedy"; "sb"; "ws"; "pdf"; "tree" ] Zoo.names;
  List.iter
    (fun name ->
      match Zoo.find name with
      | Some (module S : Scheduler.S) ->
        Alcotest.(check string) "find returns the named member" name S.name
      | None -> Alcotest.failf "zoo member %s not found" name)
    Zoo.names;
  Alcotest.(check bool) "unknown name" true (Zoo.find "bogus" = None)

let test_zoo_invariants () =
  let machine = small_machine ~top:2 () in
  let nproc = Pmh.n_procs machine in
  List.iter
    (fun (wname, p) ->
      let g = Greedy.run ~procs:1 p in
      let work = g.Scheduler.work and span = g.Scheduler.span in
      List.iter
        (fun (sname, (module S : Scheduler.S)) ->
          let s = S.run ~seed:1 p machine in
          let ctx = Printf.sprintf "%s/%s" wname sname in
          if s.Scheduler.work <> work then
            Alcotest.failf "%s: work %d <> %d" ctx s.Scheduler.work work;
          if s.Scheduler.span <> span then
            Alcotest.failf "%s: span %d <> %d" ctx s.Scheduler.span span;
          if s.Scheduler.busy < work then
            Alcotest.failf "%s: busy %d < work %d" ctx s.Scheduler.busy work;
          let lower = max span ((work + nproc - 1) / nproc) in
          if s.Scheduler.time < lower then
            Alcotest.failf "%s: time %d below lower bound %d" ctx
              s.Scheduler.time lower;
          if s.Scheduler.space_hwm <= 0 then
            Alcotest.failf "%s: space hwm %d not positive" ctx
              s.Scheduler.space_hwm;
          let u = Scheduler.utilization s in
          if not (u > 0. && u <= 1.) then
            Alcotest.failf "%s: utilization %g outside (0,1]" ctx u;
          Array.iter
            (fun m ->
              if m < 0 then Alcotest.failf "%s: negative miss count" ctx)
            s.Scheduler.misses)
        Zoo.all)
    (workloads ())

let test_zoo_deterministic () =
  let machine = small_machine ~top:2 () in
  let _, p = List.hd (workloads ()) in
  List.iter
    (fun (sname, (module S : Scheduler.S)) ->
      let a = S.run ~seed:7 p machine and b = S.run ~seed:7 p machine in
      if a <> b then Alcotest.failf "%s: same seed, different stats" sname)
    Zoo.all

(* PDF's premium is the shared cache (Blelloch–Gibbons): its ready-vertex
   priorities follow the serial depth-first order, so one shared cache
   sees near-serial locality, while p work-stealing streams each chase
   their own depth-first suffix and thrash it.  The effect needs the
   working set to dwarf the cache and enough processors to make the
   stealing streams collide — mm at n in {32, 64} with an 8- or 16-way
   shared cache of 256..1024 words; at p = 4 or near-fitting sizes the
   orders converge and WS can edge ahead, so those configs are out. *)
let test_pdf_not_worse_than_ws_shared_cache () =
  let shared p size =
    Pmh.create ~root_fanout:1 [ { Pmh.size; fanout = p; miss_cost = 8 } ]
  in
  List.iter
    (fun (name, w) ->
      let prog = Workload.compile w in
      List.iter
        (fun (procs, size) ->
          let machine = shared procs size in
          let pdf =
            (Nd_sched.Pdf_sched.run ~seed:1 prog machine).Scheduler.misses.(0)
          in
          List.iter
            (fun seed ->
              let ws =
                (Ws.Shared.run ~seed prog machine).Scheduler.misses.(0)
              in
              if pdf > ws then
                Alcotest.failf
                  "%s p=%d M=%d seed=%d: pdf misses %d > ws misses %d" name
                  procs size seed pdf ws)
            [ 1; 2; 3; 4; 5 ])
        [ (8, 256); (8, 512); (8, 1024); (16, 256); (16, 512); (16, 1024) ])
    [
      ("mm32", Matmul.workload ~n:32 ~base:4 ~seed:1 ());
      ("mm64", Matmul.workload ~n:64 ~base:8 ~seed:1 ());
    ]

(* the tree scheduler's whole point: admitted-task residency stays
   within the budget (the machine's outermost cache, 4096 words here)
   between forced admissions.  A forced admission, made when nothing
   runs and nothing fits, can overrun it, and stacked forced admissions
   do (E10's fw1d, trs and cholesky rows); mm n=16 stays within it. *)
let test_tree_space_within_budget () =
  let machine = small_machine ~top:2 () in
  let _, p = List.hd (workloads ()) in
  let budget = 4096 in
  let s = Nd_sched.Tree_sched.run p machine in
  if s.Scheduler.space_hwm > budget then
    Alcotest.failf "space hwm %d exceeds budget %d" s.Scheduler.space_hwm
      budget

(* --------------------------- pinned zoo ----------------------------- *)

(* the zoo's two machines, and the cells of a per-cache miss table *)
let pinned_machines () =
  [ small_machine ~top:2 (); Nd_check.Oracle.machine ]

let miss_cells str = function
  | None -> str "-"
  | Some mt ->
    for level = 1 to Nd_mem.Miss_table.n_levels mt do
      for cache = 0 to Nd_mem.Miss_table.n_caches mt ~level - 1 do
        str (string_of_int (Nd_mem.Miss_table.get mt ~level ~cache))
      done
    done

(* Every zoo member's table row, busy time, span and per-cache miss
   table, at seeds {1, 7} and comm delay {0, 3}, on two machines, plus
   work stealing's steal count and event trace: one digest per program.
   Each is a simulated count, so any drift is a behaviour change. *)
let zoo_digest p =
  let b = Buffer.create 4096 in
  let str s =
    Buffer.add_string b s;
    Buffer.add_char b ','
  in
  let int x = str (string_of_int x) in
  List.iter
    (fun machine ->
      let n_procs = Pmh.n_procs machine in
      List.iter
        (fun seed ->
          List.iter
            (fun comm_delay ->
              List.iter
                (fun (name, (module S : Scheduler.S)) ->
                  let s = S.run ~seed ~comm_delay p machine in
                  str name;
                  List.iter str (Scheduler.to_row s);
                  int s.Scheduler.busy;
                  int s.Scheduler.span;
                  miss_cells str s.Scheduler.miss_table)
                Zoo.all)
            [ 0; 3 ];
          let tracer =
            Nd_trace.Collector.create ~capacity:(1 lsl 14) ~workers:n_procs ()
          in
          let _, steals = Ws.run ~seed ~tracer p machine in
          int steals;
          int (Nd_trace.Collector.dropped tracer);
          List.iter
            (fun e -> str (Format.asprintf "%a" Nd_trace.Event.pp e))
            (Nd_trace.Collector.events tracer))
        [ 1; 7 ])
    (pinned_machines ());
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Recorded before the vertex simulators moved onto one event engine:
   every family at its first sweep size (family base, seed 1) in ND and
   NP mode, and the first 50 generated conformance programs. *)
let recorded_zoo_digests =
  [
    ("mm", "ND", "0479bcdbc469de3820aae1f9592699f3");
    ("mm", "NP", "146c7310a163f81e2ede51d8e8cbb9c5");
    ("mm8", "ND", "5d9967d540b1c93281287c6ff9fdb522");
    ("mm8", "NP", "5d9967d540b1c93281287c6ff9fdb522");
    ("trs", "ND", "f018862e9785ace0499b39e1c770842b");
    ("trs", "NP", "5db73bed66307fc8e00657c5d6e06cbd");
    ("cholesky", "ND", "e39395419666eeeddf41e199357e3367");
    ("cholesky", "NP", "7928735656e1ce41446e60361c130863");
    ("lu", "ND", "c19d9eafe93c4cc1626eee1e69d8e148");
    ("lu", "NP", "195bfaf1e03b4493d8ea568a6de5722a");
    ("apsp", "ND", "9a2bcde80dcd02c4eabdd256f11b536b");
    ("apsp", "NP", "730c37669e22d735de61bc11f38f5a2a");
    ("fw1d", "ND", "a6c63a47302f7a8d727d72b5a43ad9bb");
    ("fw1d", "NP", "570f2fe7c237163488bfe5381740df71");
    ("stencil", "ND", "310a2345374e4aec5abaa815162fea1a");
    ("stencil", "NP", "fafacf8dd358f3f5d4c9cb1719040fe4");
    ("gotoh", "ND", "bb18ad90381a6e74c38c6a3940a4c0fa");
    ("gotoh", "NP", "1a1902657aed68cd44152643039c07dc");
    ("lcs", "ND", "9b2bfe65862920b5150a6486f28de295");
    ("lcs", "NP", "666b4477bf01d75b7e2733fab06023c9")
  ]

let recorded_gen_digest = "02cec876dbefd82ba1e4ee5bdf4593f1"

(* [digest] of every family at its first sweep size (family base, seed
   1) in ND and NP mode, and of the first [n_generated] generated
   conformance programs, checked against the recorded values *)
let check_pinned digest ~n_generated ~families ~generated =
  let module W = Nd_algos.Workload in
  let module F = Nd_experiments.Workloads in
  let got =
    List.concat_map
      (fun f ->
        let n = List.hd f.F.sizes in
        List.map
          (fun mode ->
            let w = f.F.build ~n ~base:f.F.base ~seed:1 in
            (f.F.name, W.mode_name mode, digest (W.compile ~mode w)))
          [ W.ND; W.NP ])
      F.all
  in
  let gen =
    String.concat ""
      (List.init n_generated (fun seed ->
           let inst = Nd_check.Gen.build (Nd_check.Gen.generate ~seed ()) in
           digest
             (Nd.Program.compile ~registry:inst.Nd_check.Gen.registry
                inst.Nd_check.Gen.tree)))
  in
  Alcotest.(check (list (triple string string string)))
    "families x modes" families got;
  Alcotest.(check string) "generated programs" generated
    (Digest.to_hex (Digest.string gen))

let test_zoo_pinned () =
  check_pinned zoo_digest ~n_generated:50 ~families:recorded_zoo_digests
    ~generated:recorded_gen_digest

(* ---------------------------- pinned SB ----------------------------- *)

(* SB in every mode, not only the zoo's (Coarse, Lru): its stats line
   and per-cache miss table under {Coarse, Fine} x {Rho, Lru, replay on
   1 and 2 workers}, on the zoo's two machines, one digest per program.
   The pin takes 400 generated programs: leaving the glue targets of a
   fine node unsorted changes the stats of generated program 326 alone,
   among these programs and the families. *)
let sb_digest p =
  let b = Buffer.create 4096 in
  let str s =
    Buffer.add_string b s;
    Buffer.add_char b ','
  in
  List.iter
    (fun machine ->
      List.iter
        (fun mode ->
          List.iter
            (fun run ->
              let s = run mode in
              str (Format.asprintf "%a" Sb.pp_stats s);
              miss_cells str s.Sb.miss_table)
            [
              (fun mode -> Sb.run ~mode ~accounting:Sb.Rho p machine);
              (fun mode -> Sb.run ~mode ~accounting:Sb.Lru p machine);
              (fun mode -> Sb.run ~mode ~sim_workers:1 p machine);
              (fun mode -> Sb.run ~mode ~sim_workers:2 p machine);
            ])
        [ Sb.Coarse; Sb.Fine ])
    (pinned_machines ());
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Recorded before SB's event tables were built in two counting passes *)
let recorded_sb_digests =
  [
    ("mm", "ND", "5b3f0e32a4a64f17e76ec7a219b35b82");
    ("mm", "NP", "4afbc26e1f222e87089977babbe16ffc");
    ("mm8", "ND", "28fe29875c4d71408ead03ee0e33d57e");
    ("mm8", "NP", "28fe29875c4d71408ead03ee0e33d57e");
    ("trs", "ND", "233b808b3fb2ed63665db5a6c78bba05");
    ("trs", "NP", "b31714f9a11b2d13b2f2d7ac281e6dfd");
    ("cholesky", "ND", "90422d519214d5ed2075f419fe930839");
    ("cholesky", "NP", "18ecff33f26c8e8a4dccf250ab238687");
    ("lu", "ND", "af615dc15750f6d0718325784bfbe2c3");
    ("lu", "NP", "468260e4b645999c32737a862da16895");
    ("apsp", "ND", "ae1ddd2cf845d415bbf90928bd17195a");
    ("apsp", "NP", "bf48e20c6b804ef029ca8956b9e76d0d");
    ("fw1d", "ND", "ff32cc661ad9290beabf13e427a35862");
    ("fw1d", "NP", "657994dd9a562187d63e560a6fc0368c");
    ("stencil", "ND", "f8ff19445c81be6dbcf29f8019dc06cb");
    ("stencil", "NP", "1de53f892c0f62df0d3dad55b4c12102");
    ("gotoh", "ND", "0a8a5118712218ec57126e0efaa5215f");
    ("gotoh", "NP", "cb4ef1e11a3bfcddab26e0893b140bb1");
    ("lcs", "ND", "94918e56611f537812d3b4909fdee90d");
    ("lcs", "NP", "b61dc04aea6842d04ff53f6682f609ed");
  ]

let recorded_sb_gen_digest = "e53819eb059a1984da88031b849f11f9"

let test_sb_pinned () =
  check_pinned sb_digest ~n_generated:400 ~families:recorded_sb_digests
    ~generated:recorded_sb_gen_digest

(* One SB run allocates outside the minor heap little beyond the tables
   it keeps: on mm n=32 b=2 and the oracle's machine, after a warm-up run
   (which memoizes the decompositions), at most 60 words a DAG vertex in
   either readiness mode.  Building the event tables through a hash set
   and growable buffers took 239 (Coarse) and 338 (Fine). *)
let test_sb_alloc () =
  let w =
    Nd_experiments.Workloads.build ~n:32 ~base:2
      (Nd_experiments.Workloads.find "mm") ~seed:1
  in
  let p = Workload.compile w in
  let machine = Nd_check.Oracle.machine in
  let nv = Nd_dag.Dag.n_vertices (Nd.Program.dag p) in
  List.iter
    (fun (name, mode) ->
      ignore (Sb.run ~mode p machine);
      Gc.minor ();
      let _, _, major0 = Gc.counters () in
      let s = Sb.run ~mode p machine in
      let _, _, major1 = Gc.counters () in
      let per_vertex = (major1 -. major0) /. float_of_int nv in
      if per_vertex > 60. then
        Alcotest.failf
          "%s: one run allocated %.0f words outside the minor heap, %.1f a vertex \
           (%d vertices); the bound is 60"
          name (major1 -. major0) per_vertex nv;
      ignore (Sys.opaque_identity s))
    [ ("Coarse", Sb.Coarse); ("Fine", Sb.Fine) ]

(* g_i(S) lies in [1, f_i] at every cache level of the oracle's and the
   pipeline's machines, for every task size S up to M_i, so 3S/M
   reaches 3: the oracle anchors at sigma up to 1.  The memory root
   allots nothing: its anchor holds every top-level cache. *)
let test_sb_allocation_range () =
  List.iter
    (fun (name, machine) ->
      for level = 1 to Pmh.n_levels machine do
        let f = Pmh.fanout machine ~level in
        for size = 1 to Pmh.size machine ~level do
          let g = Sb.allocation machine ~level size in
          if g < 1 || g > f then
            Alcotest.failf "%s level %d size %d: allocation %d outside [1, %d]" name level
              size g f
        done
      done)
    [
      ("oracle", Nd_check.Oracle.machine);
      ("pipeline", Nd_serve.Server.standard_machine ~top:1);
    ]

let () =
  Alcotest.run "nd_sched"
    [
      ( "greedy",
        [
          Alcotest.test_case "Brent bound" `Quick test_greedy_brent;
          Alcotest.test_case "T_1 = work" `Quick test_greedy_serial_is_work;
        ] );
      ( "space_bounded",
        [
          Alcotest.test_case "completes all workloads" `Quick test_sb_completes_all;
          Alcotest.test_case "Theorem 1 miss bound" `Quick test_sb_theorem1;
          Alcotest.test_case "deterministic" `Quick test_sb_deterministic;
          Alcotest.test_case "serial machine" `Quick test_sb_serial_machine;
          Alcotest.test_case "misses model-invariant" `Quick
            test_sb_misses_mode_invariant;
          Alcotest.test_case "ND not slower than NP" `Quick test_sb_nd_not_slower;
          Alcotest.test_case "fine not slower than coarse" `Quick
            test_sb_fine_not_slower;
          Alcotest.test_case "replay workers bit-identical" `Quick
            test_sb_replay_workers_identical;
          Alcotest.test_case "replay schedule is rho" `Quick
            test_sb_replay_schedule_is_rho;
          Alcotest.test_case "1-proc replay = inline LRU" `Quick
            test_sb_replay_single_proc_matches_inline;
          Alcotest.test_case "LRU accounting <= rho" `Quick
            test_sb_lru_accounting;
          Alcotest.test_case "pinned stats and misses, every mode" `Quick
            test_sb_pinned;
          Alcotest.test_case "run allocation" `Quick test_sb_alloc;
          Alcotest.test_case "allocation in [1, f]" `Quick test_sb_allocation_range;
        ] );
      ( "work_stealing",
        [
          Alcotest.test_case "completes" `Quick test_ws_completes;
          Alcotest.test_case "seed-deterministic" `Quick
            test_ws_deterministic_per_seed;
          Alcotest.test_case "1 proc, 0 steals" `Quick test_ws_single_proc_no_steals;
        ] );
      ( "stats",
        [
          Alcotest.test_case "degenerate utilization" `Quick
            test_utilization_degenerate;
        ] );
      ( "zoo",
        [
          Alcotest.test_case "registry" `Quick test_zoo_registry;
          Alcotest.test_case "shared-interface invariants" `Quick
            test_zoo_invariants;
          Alcotest.test_case "seed-deterministic" `Quick
            test_zoo_deterministic;
          Alcotest.test_case "pdf <= ws misses on shared cache" `Quick
            test_pdf_not_worse_than_ws_shared_cache;
          Alcotest.test_case "tree respects space budget" `Quick
            test_tree_space_within_budget;
          Alcotest.test_case "pinned stats, misses and ws traces" `Quick
            test_zoo_pinned;
        ] );
    ]
