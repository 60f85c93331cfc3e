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

type config = {
  procs : int list;
  sigmas : float list;
  sb_modes : Sb.mode list;
  ws_seeds : int list;
  exec_workers : int list;
  grains : int list;
  machine : Pmh.t;
  serial_orders : int;
  explore_seeds : int list;
  check_miss_monotone : bool;
  sim_workers : int list;
}

let default_config =
  {
    procs = [ 1; 2; 5 ];
    sigmas = [ 0.34; 0.5; 1.0 ];
    sb_modes = [ Sb.Coarse; Sb.Fine ];
    ws_seeds = [ 1; 2 ];
    exec_workers = [ 1; 2; 4 ];
    grains = [ 0; 8 ];
    machine =
      Pmh.create ~root_fanout:2
        [
          { size = 16; fanout = 2; miss_cost = 2 };
          { size = 128; fanout = 2; miss_cost = 8 };
        ];
    serial_orders = 3;
    explore_seeds = [ 1 ];
    check_miss_monotone = true;
    sim_workers = [ 1; 2 ];
  }

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

let check_greedy cfg program ~work ~span =
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
    cfg.procs;
  List.length cfg.procs

let mode_name = function Sb.Coarse -> "coarse" | Sb.Fine -> "fine"

let check_sb cfg program ~work ~span =
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
                Sb.run ~sigma ~mode ~accounting:Sb.Rho program cfg.machine)
          in
          if s.Sb.work <> work then
            fail stage "reported work %d <> %d" s.Sb.work work;
          if s.Sb.busy < work then
            fail stage "busy %d < work %d (lost busy time)" s.Sb.busy work;
          if s.Sb.time < span then
            fail stage "time %d < span %d" s.Sb.time span;
          (if cfg.check_miss_monotone then
             match !prev with
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
          prev := Some (sigma, s.Sb.misses))
        cfg.sigmas)
    cfg.sb_modes;
  !paths

(* every zoo member behind the shared interface: one run each on the
   oracle machine, against the invariants the interface promises —
   conserved work, correct span, busy covering the work (nothing lost),
   makespan at or above the greedy lower bound (which also implies no
   deadlock: a stalled scheduler raises and is caught by [guard]) *)
let check_zoo cfg program ~work ~span =
  let p = Pmh.n_procs cfg.machine in
  List.iter
    (fun (name, (module S : Nd_sched.Scheduler.S)) ->
      let stage = Printf.sprintf "zoo %s" name in
      let s = guard stage (fun () -> S.run ~seed:1 program cfg.machine) in
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
   mode must produce bit-identical per-cache miss tables at every
   sim-worker count, deterministically across repeated runs, without
   perturbing the (ρ-cost) schedule *)
let check_sim_shard cfg program ~work =
  match cfg.sim_workers with
  | [] -> 0
  | w0 :: rest ->
    let table stage s =
      match s.Sb.miss_table with
      | Some t -> t
      | None -> fail stage "no miss table from replay mode"
    in
    let stage0 = Printf.sprintf "sim-shard w=%d" w0 in
    let base =
      guard stage0 (fun () -> Sb.run ~sim_workers:w0 program cfg.machine)
    in
    if base.Sb.work <> work then
      fail stage0 "reported work %d <> %d" base.Sb.work work;
    let bt = table stage0 base in
    List.iter
      (fun w ->
        let stage = Printf.sprintf "sim-shard w=%d" w in
        let s =
          guard stage (fun () -> Sb.run ~sim_workers:w program cfg.machine)
        in
        if s.Sb.time <> base.Sb.time then
          fail stage "time %d <> %d: sim sharding perturbed the schedule"
            s.Sb.time base.Sb.time;
        if s.Sb.misses <> base.Sb.misses then
          fail stage "level miss totals diverge from w=%d" w0;
        if s.Sb.miss_cost <> base.Sb.miss_cost then
          fail stage "miss cost %d <> %d" s.Sb.miss_cost base.Sb.miss_cost;
        if not (Nd_mem.Miss_table.equal bt (table stage s)) then
          fail stage "per-cache miss table diverges from w=%d" w0;
        (* determinism: the same worker count twice, bit-identical *)
        let s' =
          guard stage (fun () -> Sb.run ~sim_workers:w program cfg.machine)
        in
        if not (Nd_mem.Miss_table.equal (table stage s) (table stage s')) then
          fail stage "repeated run not deterministic")
      rest;
    1 + List.length rest

let check_ws cfg program ~work ~span =
  List.iter
    (fun seed ->
      let stage = Printf.sprintf "ws seed=%d" seed in
      let s, _ = guard stage (fun () -> Ws.run ~seed program cfg.machine) in
      if s.Scheduler.work <> work then
        fail stage "reported work %d <> %d" s.Scheduler.work work;
      if s.Scheduler.busy < work then
        fail stage "busy %d < work %d" s.Scheduler.busy work;
      if s.Scheduler.time < span then
        fail stage "time %d < span %d" s.Scheduler.time span)
    cfg.ws_seeds;
  List.length cfg.ws_seeds

(* ------------------------- executing paths ---------------------------- *)

(* [reset] restores inputs, [verify stage] checks observables; both are
   supplied by the spec/workload front ends. *)
let check_executing cfg program ~reset ~verify =
  let paths = ref 0 in
  let run_path stage f =
    incr paths;
    reset ();
    guard stage f;
    verify stage
  in
  (* randomized topological orders through the serial executor *)
  for i = 1 to cfg.serial_orders do
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
        cfg.grains)
    cfg.exec_workers;
  (* controlled interleavings of the dataflow engine and of the fiber
     scheduler *)
  if cfg.explore_seeds <> [] then begin
    let explored stage explore =
      incr paths;
      let check () =
        match verify stage with
        | () -> Ok ()
        | exception Fail f -> Error f.message
      in
      match
        explore ~workers:2
          ~mode:(Explore.Random { seeds = cfg.explore_seeds })
          ~reset ~check program
      with
      | Ok _ -> ()
      | Error f -> fail stage "%s" (Format.asprintf "%a" Explore.pp_failure f)
    in
    explored "explore" (fun ~workers ~mode ~reset ~check program ->
        Explore.explore_program ~workers ~mode ~reset ~check program);
    explored "explore-fiber" (fun ~workers ~mode ~reset ~check program ->
        Explore.explore_fiber_program ~workers ~mode ~reset ~check program)
  end;
  !paths

(* ---------------------- structural cost analysis --------------------- *)

(* The structural Cost pass must agree bit-for-bit with every exact
   quantity the DAG path defines (work, root footprint size, Q* at every
   capacity the sigma sweep touches) and count the bare tree's leaves,
   the compile-free pass must agree with the DAG's span and the
   program's fire pairs, and the SB-simulated per-level ρ misses must
   obey the static Theorem 1 bound Q*(t; sigma * M_j) at every sigma. *)
let check_cost cfg program ~work ~span =
  let stage = "cost" in
  let cost = guard stage (fun () -> Cost.of_program program) in
  let registry = Nd.Program.registry program in
  let tree = guard stage (fun () -> Cost.tree_span ~registry (Nd.Program.tree program)) in
  let r = Cost.report cost and pairs = Nd.Program.n_fire_edges program in
  if r.Cost.work <> work then
    fail stage "structural work %d <> DAG work %d" r.Cost.work work;
  if (tree.Cost.span, tree.Cost.n_fire_edges) <> (span, pairs) then
    fail stage "tree span and fire pairs (%d, %d) <> DAG's (%d, %d)"
      tree.Cost.span tree.Cost.n_fire_edges span pairs;
  let leaves = Nd.Spawn_tree.n_leaves (Nd.Program.tree program) in
  if r.Cost.n_leaves <> leaves then
    fail stage "structural n_leaves %d <> the tree's %d" r.Cost.n_leaves leaves;
  let root_size = Nd.Program.size program (Nd.Program.root program) in
  if r.Cost.root_size <> root_size then
    fail stage "structural root size %d <> exact %d" r.Cost.root_size
      root_size;
  let ms =
    List.sort_uniq compare
      (1 :: 2
      :: List.concat_map
           (fun sigma ->
             List.init (Pmh.n_levels cfg.machine) (fun j ->
                 max 1
                   (int_of_float
                      (sigma *. float_of_int (Pmh.size cfg.machine ~level:(j + 1))))))
           cfg.sigmas)
  in
  List.iter
    (fun m ->
      let q = Cost.q_star cost ~m and qe = Nd_mem.Pcc.q_star program ~m in
      if q <> qe then fail stage "structural Q*(m=%d) %d <> exact %d" m q qe)
    ms;
  List.iter
    (fun sigma ->
      let stage = Printf.sprintf "cost theorem1 sigma=%.2f" sigma in
      let c =
        guard stage (fun () ->
            Cost.certify_theorem1 ~sigma ~cost program cfg.machine)
      in
      if not c.Cost.certified then
        fail stage "Theorem 1 violated:@ %s"
          (Format.asprintf "%a" Cost.pp_certification c))
    cfg.sigmas;
  1 + List.length cfg.sigmas

(* ------------------------------ fronts ------------------------------- *)

let run_oracle cfg program ~tree_work ~races_fail ~reset ~reference ~verify =
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
      + check_greedy cfg program ~work ~span
      + check_sb cfg program ~work ~span
      + check_ws cfg program ~work ~span
      + check_sim_shard cfg program ~work
      + check_cost cfg program ~work ~span
      + check_zoo cfg program ~work ~span
      + check_executing cfg program ~reset ~verify
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

let check_instance ?(config = default_config) (inst : Gen.instance) =
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
    run_oracle config program
      ~tree_work:(Nd.Spawn_tree.work inst.tree)
      ~races_fail:false
      ~reset:(fun () -> Gen.reset inst)
      ~reference:(fun () -> reference := Array.copy inst.memory)
      ~verify
  with
  | r -> r
  | exception Fail f -> Error f

let check_spec ?config spec = check_instance ?config (Gen.build spec)

let check_workload ?(config = default_config) ?(tol = 1e-6)
    (w : Nd_algos.Workload.t) =
  let program = Nd_algos.Workload.compile w in
  let verify stage =
    let dev = w.check () in
    if not (dev <= tol) then
      fail stage "%s n=%d: deviation %g exceeds tolerance %g" w.name w.n dev
        tol
  in
  match
    run_oracle config program
      ~tree_work:(Nd.Spawn_tree.work w.tree)
      ~races_fail:true ~reset:w.reset
      ~reference:(fun () -> ())
      ~verify
  with
  | r -> r
  | exception Fail f -> Error f
