module Dag = Nd_dag.Dag
module Race = Nd_dag.Race
module Pmh = Nd_pmh.Pmh
module Greedy = Nd_sched.Greedy
module Scheduler = Nd_sched.Scheduler
module Sb = Nd_sched.Sb_sched
module Ws = Nd_sched.Work_steal
module Backend = Nd_runtime.Backend
module Prng = Nd_util.Prng
module Cost = Nd_analyze.Cost

(* The sweeps, sized so a full oracle run on a generated program takes
   milliseconds; only the real executors' worker list is the caller's *)
let procs = [ 1; 2; 5 ]

let sigmas = [ 0.34; 0.5; 1.0 ]

let ws_seeds = [ 1; 2 ]

let grains = [ 0; 8 ]

let machine =
  Pmh.create ~root_fanout:2
    [
      { size = 16; fanout = 2; miss_cost = 2 };
      { size = 128; fanout = 2; miss_cost = 8 };
    ]

let serial_orders = 3

let exec_workers = [ 1; 2; 4 ]

let explore_seeds = [ 1 ]

type report = {
  n_vertices : int;
  n_leaves : int;
  work : int;
  span : int;
  race_free : bool;
  n_races : int;
  paths : int;
}

type failure = { stage : string; message : string }

let pp_failure ppf f = Format.fprintf ppf "[%s] %s" f.stage f.message

exception Fail of failure

let fail stage fmt = Printf.ksprintf (fun message -> raise (Fail { stage; message })) fmt

let guard stage f =
  try f ()
  with
  | Fail _ as e -> raise e
  | e -> fail stage "raised %s" (Printexc.to_string e)

(* ----------------------- structural invariants ----------------------- *)

let check_structure program tree_work =
  let dag = Nd.Program.dag program in
  let work = Dag.work dag in
  let span = Dag.span dag in
  guard "structure" (fun () -> ignore (Dag.topo_order dag));
  if work <> tree_work then
    fail "structure" "DAG work %d <> spawn-tree work %d (work not conserved)"
      work tree_work;
  if span > work then fail "structure" "span %d > work %d" span work;
  (work, span)

(* ------------------------- simulated paths --------------------------- *)

let lb ~work ~span p = max span ((work + p - 1) / p)

let check_greedy program ~work ~span =
  List.iter
    (fun p ->
      let stage = Printf.sprintf "greedy p=%d" p in
      let s = guard stage (fun () -> Greedy.run ~procs:p program) in
      if s.Scheduler.work <> work then
        fail stage "reported work %d <> %d" s.Scheduler.work work;
      if s.Scheduler.span <> span then
        fail stage "reported span %d <> %d" s.Scheduler.span span;
      if s.Scheduler.time < lb ~work ~span p then
        fail stage "time %d below lower bound %d" s.Scheduler.time
          (lb ~work ~span p);
      if s.Scheduler.time > Greedy.brent_bound s then
        fail stage "time %d violates Brent bound %d" s.Scheduler.time
          (Greedy.brent_bound s))
    procs;
  List.length procs

let mode_name = function Sb.Coarse -> "coarse" | Sb.Fine -> "fine"

(* Each sigma's coarse run also checks Theorem 1: level j's ρ misses
   must not exceed the static Q*(t; sigma * M_j), the bound
   Cost.certify_theorem1 reads for the same run *)
let check_theorem1 program sigma (s : Sb.stats) =
  let stage = Printf.sprintf "cost theorem1 sigma=%.2f" sigma in
  Array.iteri
    (fun j misses ->
      let m =
        max 1
          (int_of_float (sigma *. float_of_int (Pmh.size machine ~level:(j + 1))))
      in
      let bound = guard stage (fun () -> Nd_mem.Pcc.q_star program ~m) in
      if misses > bound then
        fail stage "Theorem 1 violated: level %d misses %d > Q*(%d) = %d"
          (j + 1) misses m bound)
    s.Sb.misses

let check_sb program ~work ~span =
  let paths = ref 0 in
  List.iter
    (fun mode ->
      let prev = ref None in
      (* ascending sigmas: ρ misses must not increase *)
      List.iter
        (fun sigma ->
          incr paths;
          let stage =
            Printf.sprintf "sb sigma=%.2f %s" sigma (mode_name mode)
          in
          let s =
            guard stage (fun () ->
                Sb.run ~sigma ~mode ~accounting:Sb.Rho program machine)
          in
          if s.Sb.work <> work then
            fail stage "reported work %d <> %d" s.Sb.work work;
          if s.Sb.busy < work then
            fail stage "busy %d < work %d (lost busy time)" s.Sb.busy work;
          if s.Sb.time < span then
            fail stage "time %d < span %d" s.Sb.time span;
          (match !prev with
          | Some (psigma, pm) ->
            Array.iteri
              (fun j m ->
                if m > pm.(j) then
                  fail stage
                    "level-%d misses grew from %d (sigma=%.2f) to %d: ρ \
                     misses must be non-increasing in sigma"
                    (j + 1) pm.(j) psigma m)
              s.Sb.misses
          | None -> ());
          prev := Some (sigma, s.Sb.misses);
          if mode = Sb.Coarse then begin
            incr paths;
            check_theorem1 program sigma s
          end)
        sigmas)
    [ Sb.Coarse; Sb.Fine ];
  !paths

(* every zoo member behind the shared interface: one run each on the
   oracle machine, against the invariants the interface promises —
   conserved work, correct span, busy covering the work (nothing lost),
   makespan at or above the greedy lower bound (which also implies no
   deadlock: a stalled scheduler raises and is caught by [guard]) *)
let check_zoo program ~work ~span =
  let p = Pmh.n_procs machine in
  List.iter
    (fun (name, (module S : Nd_sched.Scheduler.S)) ->
      let stage = Printf.sprintf "zoo %s" name in
      let s = guard stage (fun () -> S.run ~seed:1 program machine) in
      let open Nd_sched.Scheduler in
      if s.work <> work then fail stage "reported work %d <> %d" s.work work;
      if s.span <> span then fail stage "reported span %d <> %d" s.span span;
      if s.busy < work then
        fail stage "busy %d < work %d (lost busy time)" s.busy work;
      if s.time < lb ~work ~span p then
        fail stage "time %d below lower bound %d" s.time (lb ~work ~span p);
      if s.space_hwm < 0 then fail stage "negative space hwm %d" s.space_hwm;
      Array.iteri
        (fun j m ->
          if m < 0 then fail stage "negative level-%d misses %d" (j + 1) m)
        s.misses)
    Nd_sched.Zoo.all;
  List.length Nd_sched.Zoo.all

(* the sharded cache-simulation identity: SB's decoupled measurement
   mode must produce bit-identical per-cache miss tables at 1 and 2
   sim workers, deterministically across repeated runs, without
   perturbing the (ρ-cost) schedule *)
let check_sim_shard program ~work =
  let table stage s =
    match s.Sb.miss_table with
    | Some t -> t
    | None -> fail stage "no miss table from replay mode"
  in
  let stage0 = "sim-shard w=1" in
  let base = guard stage0 (fun () -> Sb.run ~sim_workers:1 program machine) in
  if base.Sb.work <> work then
    fail stage0 "reported work %d <> %d" base.Sb.work work;
  let bt = table stage0 base in
  let stage = "sim-shard w=2" in
  let run () = guard stage (fun () -> Sb.run ~sim_workers:2 program machine) in
  let s = run () in
  if s.Sb.time <> base.Sb.time then
    fail stage "time %d <> %d: sim sharding perturbed the schedule" s.Sb.time
      base.Sb.time;
  if s.Sb.misses <> base.Sb.misses then
    fail stage "level miss totals diverge from w=1";
  if s.Sb.miss_cost <> base.Sb.miss_cost then
    fail stage "miss cost %d <> %d" s.Sb.miss_cost base.Sb.miss_cost;
  if not (Nd_mem.Miss_table.equal bt (table stage s)) then
    fail stage "per-cache miss table diverges from w=1";
  (* determinism: the same worker count twice, bit-identical *)
  if not (Nd_mem.Miss_table.equal (table stage s) (table stage (run ()))) then
    fail stage "repeated run not deterministic";
  2

let check_ws program ~work ~span =
  List.iter
    (fun seed ->
      let stage = Printf.sprintf "ws seed=%d" seed in
      let s, _ = guard stage (fun () -> Ws.run ~seed program machine) in
      if s.Scheduler.work <> work then
        fail stage "reported work %d <> %d" s.Scheduler.work work;
      if s.Scheduler.busy < work then
        fail stage "busy %d < work %d" s.Scheduler.busy work;
      if s.Scheduler.time < span then
        fail stage "time %d < span %d" s.Scheduler.time span)
    ws_seeds;
  List.length ws_seeds

(* ------------------------- executing paths ---------------------------- *)

(* [reset] restores inputs, [verify stage] checks observables; both are
   supplied by the spec/workload front ends. *)
let check_executing ~workers program ~reset ~verify =
  let paths = ref 0 in
  let run_path stage f =
    incr paths;
    reset ();
    guard stage f;
    verify stage
  in
  (* randomized topological orders through the serial executor *)
  for i = 1 to serial_orders do
    run_path
      (Printf.sprintf "serial order=%d" i)
      (fun () -> Nd.Serial_exec.run ~rng:(Prng.create (0x5e1 + i)) program)
  done;
  (* every registered real backend: dataflow (ND), fork-join (the NP
     projection — a linear extension of the same DAG, so the same
     oracle applies) and the fiber scheduler, three-way on every
     case *)
  List.iter
    (fun w ->
      List.iter
        (fun g ->
          List.iter
            (fun (module B : Backend.S) ->
              run_path
                (Printf.sprintf "%s w=%d g=%d" B.name w g)
                (fun () -> B.run ~workers:w ~grain:g program))
            Backend.all)
        grains)
    workers;
  (* controlled interleavings of the dataflow engine and of the fiber
     scheduler *)
  let explored stage explore =
    incr paths;
    let check () =
      match verify stage with
      | () -> Ok ()
      | exception Fail f -> Error f.message
    in
    match
      explore ~workers:2
        ~mode:(Explore.Random { seeds = explore_seeds })
        ~reset ~check program
    with
    | Ok _ -> ()
    | Error f -> fail stage "%s" (Format.asprintf "%a" Explore.pp_failure f)
  in
  explored "explore" (fun ~workers ~mode ~reset ~check program ->
      Explore.explore_program ~workers ~mode ~reset ~check program);
  explored "explore-fiber" (fun ~workers ~mode ~reset ~check program ->
      Explore.explore_fiber_program ~workers ~mode ~reset ~check program);
  !paths

(* ---------------------- structural cost analysis --------------------- *)

(* The structural Cost pass must count the bare tree's leaves (check_sb
   checks Theorem 1's static bound) *)
let check_cost program =
  let stage = "cost" in
  let r = guard stage (fun () -> Cost.report (Cost.of_program program)) in
  let leaves = Nd.Spawn_tree.n_leaves (Nd.Program.tree program) in
  if r.Cost.n_leaves <> leaves then
    fail stage "structural n_leaves %d <> the tree's %d" r.Cost.n_leaves leaves;
  1

(* ------------------------------ fronts ------------------------------- *)

let run_oracle ~workers program ~tree_work ~races_fail ~reset ~reference
    ~verify =
  try
    let work, span = check_structure program tree_work in
    let races =
      guard "race" (fun () -> Nd_analyze.Esp_bags.find_races program)
    in
    if races_fail && races <> [] then
      fail "race" "expected race-free, found %d (first: %s)"
        (List.length races)
        (Format.asprintf "%a" (Race.pp_race (Nd.Program.dag program))
           (List.hd races));
    (* serial elision first: it defines the reference observables,
       recorded only for a race-free program (memory equality is only
       promised there) *)
    reset ();
    guard "serial elision" (fun () -> Nd.Serial_exec.run_sequential program);
    if races = [] then reference ();
    verify "serial elision";
    let paths =
      1
      + check_greedy program ~work ~span
      + check_sb program ~work ~span
      + check_ws program ~work ~span
      + check_sim_shard program ~work
      + check_cost program
      + check_zoo program ~work ~span
      + check_executing ~workers program ~reset ~verify
    in
    Ok
      {
        n_vertices = Dag.n_vertices (Nd.Program.dag program);
        n_leaves = Nd.Program.n_leaves program;
        work;
        span;
        race_free = races = [];
        n_races = List.length races;
        paths;
      }
  with Fail f -> Error f

let check_spec ?(workers = exec_workers) spec =
  let inst = Gen.build spec in
  match Nd.Program.compile ~registry:inst.registry inst.tree with
  | exception e -> Error { stage = "compile"; message = Printexc.to_string e }
  | program ->
  let reference = ref [||] in
  let verify stage =
    Array.iteri
      (fun i c ->
        let n = Atomic.get c in
        if n <> 1 then
          fail stage "strand %d executed %d times (want exactly once)" i n)
      inst.counts;
    if !reference <> [||] && inst.memory <> !reference then begin
      let i = ref 0 in
      while inst.memory.(!i) = !reference.(!i) do
        incr i
      done;
      fail stage
        "race-free program diverged from serial elision at address %d (%d <> \
         %d)"
        !i inst.memory.(!i) !reference.(!i)
    end
  in
  match
    run_oracle ~workers program
      ~tree_work:(Nd.Spawn_tree.work inst.tree)
      ~races_fail:false
      ~reset:(fun () -> Gen.reset inst)
      ~reference:(fun () -> reference := Array.copy inst.memory)
      ~verify
  with
  | r -> r
  | exception Fail f -> Error f

let check_workload (w : Nd_algos.Workload.t) =
  let program = Nd_algos.Workload.compile w in
  let verify stage =
    let dev = w.check () in
    if not (dev <= 1e-6) then
      fail stage "%s n=%d: deviation %g exceeds tolerance 1e-6" w.name w.n dev
  in
  match
    run_oracle ~workers:exec_workers program
      ~tree_work:(Nd.Spawn_tree.work w.tree)
      ~races_fail:true ~reset:w.reset
      ~reference:(fun () -> ())
      ~verify
  with
  | r -> r
  | exception Fail f -> Error f
