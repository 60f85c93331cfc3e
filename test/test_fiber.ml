(* Tests for the effects-based fiber backend (Nd_runtime.Fiber_exec):
   promise/pool unit behaviour, executor-vs-serial equivalence over
   workers x grain, a blocked promise chain that would deadlock any
   design where a waiting fiber occupies its worker, the no-parking
   guarantee for compiled programs, and a generated
   three-way differential sweep (fork-join / dataflow / fiber) checking
   exactly-once delivery and memory equality against the serial
   elision.

   NDSIM_STRESS_ITERS scales the generated corpus (default 3; the
   nightly soak value 1000 pushes the sweep past 500 programs). *)

module Fiber = Nd_runtime.Fiber_exec
module Executor = Nd_runtime.Executor
module Gen = Nd_check.Gen
module Race = Nd_dag.Race
open Nd
open Nd_algos

let stress_iters =
  match Sys.getenv_opt "NDSIM_STRESS_ITERS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 3)
  | None -> 3

(* ------------------------- promise basics --------------------------- *)

let test_promise_basics () =
  let p = Fiber.promise () in
  Alcotest.(check bool) "fresh promise empty" true (Fiber.peek p = None);
  Fiber.fulfill p 42;
  Alcotest.(check (option int)) "peek after fulfill" (Some 42) (Fiber.peek p);
  Alcotest.(check int) "await on fulfilled works off-fiber" 42 (Fiber.await p);
  (match Fiber.fulfill p 43 with
  | () -> Alcotest.fail "second fulfill must raise"
  | exception Invalid_argument _ -> ());
  let q = Fiber.promise () in
  (match Fiber.await q with
  | _ -> Alcotest.fail "await on pending promise off-fiber must raise"
  | exception Invalid_argument _ -> ());
  match Fiber.spawn (fun () -> ()) with
  | () -> Alcotest.fail "spawn off-fiber must raise"
  | exception Invalid_argument _ -> ()

(* --------------------------- server pools --------------------------- *)

(* poll [cond] for up to 10 s; its final value *)
let within_10s cond =
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 1e-3
  done;
  cond ()

let test_pool_submit_shutdown () =
  let t = Fiber.create ~workers:2 ~name:"t" () in
  let started () = (Fiber.stats t).Fiber.started in
  Alcotest.(check int) "lazy: not started" 0 (started ());
  let hits = Atomic.make 0 in
  let n = 200 in
  for _ = 1 to n do
    Fiber.submit t (fun () -> Atomic.incr hits)
  done;
  Alcotest.(check bool) "started after submit" true (started () >= 1);
  Fiber.shutdown t;
  Alcotest.(check int) "all jobs ran" n (Atomic.get hits);
  let s = Fiber.stats t in
  Alcotest.(check int) "fibers counted" n s.Fiber.fibers;
  Alcotest.(check int) "completed counted" n s.Fiber.completed;
  Alcotest.(check int) "no errors" 0 s.Fiber.errors;
  match Fiber.submit t (fun () -> ()) with
  | () -> Alcotest.fail "submit after shutdown must raise"
  | exception Fiber.Closed -> ()

(* Workers start on demand: a submission starts worker k+1 only when k
   fibers, the workers started, are already live.  Submissions that
   never overlap keep one worker; four jobs that can only finish
   together start all four. *)
let test_pool_on_demand_start () =
  let t = Fiber.create ~workers:4 () in
  let started () = (Fiber.stats t).Fiber.started in
  let idle () = Fiber.remaining t = 0 in
  for i = 1 to 20 do
    if not (within_10s idle) then
      Alcotest.failf "submission %d never finished" i;
    Fiber.submit t ignore
  done;
  Alcotest.(check bool) "last submission finished" true (within_10s idle);
  Alcotest.(check int) "sequential submissions: one worker" 1 (started ());
  (* a 4-party barrier: each job holds its worker until all 4 arrive *)
  let arrived = Atomic.make 0 and released = Atomic.make 0 in
  let party () =
    Atomic.incr arrived;
    if within_10s (fun () -> Atomic.get arrived = 4) then Atomic.incr released
  in
  for _ = 1 to 4 do
    Fiber.submit t party
  done;
  Alcotest.(check bool) "barrier jobs finished" true (within_10s idle);
  Alcotest.(check int) "barrier released" 4 (Atomic.get released);
  Alcotest.(check int) "overlapping submissions: four workers" 4 (started ());
  Fiber.shutdown t;
  (match Fiber.submit t ignore with
  | () -> Alcotest.fail "submit after shutdown must raise"
  | exception Fiber.Closed -> ());
  Alcotest.(check int) "closed pool starts nothing" 4 (started ())

(* Submissions from several domains at once, as the server's reader
   threads make them: every job runs exactly once, and the racing
   on-demand starts never pass the pool size. *)
let test_pool_many_submitters () =
  let t = Fiber.create ~workers:3 () in
  let n_submitters = 4 and per = 500 in
  let runs = Array.init (n_submitters * per) (fun _ -> Atomic.make 0) in
  let submitters =
    List.init n_submitters (fun s ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Fiber.submit t (fun () -> Atomic.incr runs.((s * per) + i))
            done))
  in
  List.iter Domain.join submitters;
  Fiber.shutdown t;
  Array.iteri
    (fun i c ->
      if Atomic.get c <> 1 then
        Alcotest.failf "job %d ran %d times (want exactly once)" i
          (Atomic.get c))
    runs;
  let s = Fiber.stats t in
  Alcotest.(check int) "every submission a fiber" (n_submitters * per)
    s.Fiber.fibers;
  Alcotest.(check int) "every fiber completed" (n_submitters * per)
    s.Fiber.completed;
  if s.Fiber.started < 1 || s.Fiber.started > 3 then
    Alcotest.failf "started %d workers of 3" s.Fiber.started

(* Submissions racing [shutdown]: each either raises [Closed] or runs,
   exactly once, so on every round the accepted and the run balance and
   no refused submission stays counted as live. *)
let test_pool_submit_vs_shutdown () =
  for round = 1 to 40 do
    let t = Fiber.create ~workers:2 () in
    let accepted = Atomic.make 0 and ran = Atomic.make 0 in
    let submitters =
      List.init 2 (fun _ ->
          Domain.spawn (fun () ->
              try
                while true do
                  Fiber.submit t (fun () -> Atomic.incr ran);
                  Atomic.incr accepted
                done
              with Fiber.Closed -> ()))
    in
    (* close the pool mid-stream, a little later each round *)
    let deadline = Unix.gettimeofday () +. 10. in
    while Atomic.get accepted < round && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    Fiber.shutdown t;
    List.iter Domain.join submitters;
    let accepted = Atomic.get accepted and ran = Atomic.get ran in
    if accepted <> ran then
      Alcotest.failf "round %d: %d submissions accepted, %d ran" round
        accepted ran;
    if Fiber.remaining t <> 0 then
      Alcotest.failf "round %d: %d fibers still counted live" round
        (Fiber.remaining t);
    if (Fiber.stats t).Fiber.started > 2 then
      Alcotest.failf "round %d: more workers than the pool size" round
  done

(* [shutdown] closes the pool but drains it: jobs queued behind a busy
   worker all run before it returns, and a refused submission leaves
   the counters as they were. *)
let test_pool_shutdown_drains () =
  let t = Fiber.create ~workers:1 () in
  let gate = Atomic.make false and hits = Atomic.make 0 in
  Fiber.submit t (fun () ->
      while not (Atomic.get gate) do
        Domain.cpu_relax ()
      done);
  for _ = 1 to 10 do
    Fiber.submit t (fun () -> Atomic.incr hits)
  done;
  let opener =
    Domain.spawn (fun () ->
        Unix.sleepf 0.1;
        Atomic.set gate true)
  in
  Fiber.shutdown t;
  Domain.join opener;
  Alcotest.(check int) "queued jobs all ran" 10 (Atomic.get hits);
  (match Fiber.submit t ignore with
  | () -> Alcotest.fail "submit after shutdown must raise"
  | exception Fiber.Closed -> ());
  let s = Fiber.stats t in
  Alcotest.(check int) "refused submission not counted" 11 s.Fiber.fibers;
  Alcotest.(check int) "all completed" 11 s.Fiber.completed;
  Alcotest.(check int) "nothing live" 0 (Fiber.remaining t);
  Alcotest.(check int) "one worker" 1 s.Fiber.started

(* A pool fiber parked on a promise that a thread outside the pool
   fulfills: the resumption crosses in through the injector and wakes
   the idle worker, which finishes the fiber. *)
let test_pool_offpool_fulfill () =
  let t = Fiber.create ~workers:1 () in
  let p = Fiber.promise () and out = Fiber.promise () in
  Fiber.submit t (fun () -> Fiber.fulfill out (Fiber.await p + 1));
  Alcotest.(check bool) "fiber parked" true
    (within_10s (fun () -> (Fiber.stats t).Fiber.blocked = 1));
  Fiber.fulfill p 41;
  Alcotest.(check bool) "resumed fiber finished" true
    (within_10s (fun () -> Fiber.peek out <> None));
  Alcotest.(check (option int)) "value through the resumption" (Some 42)
    (Fiber.peek out);
  Fiber.shutdown t;
  let s = Fiber.stats t in
  Alcotest.(check int) "one suspension" 1 s.Fiber.suspensions;
  Alcotest.(check int) "nothing parked" 0 s.Fiber.blocked;
  Alcotest.(check int) "no errors" 0 s.Fiber.errors

let test_pool_spawn_await () =
  (* a submitted fiber fans out via spawn and joins via promises *)
  let t = Fiber.create ~workers:3 () in
  let total = Atomic.make 0 in
  let done_ = Fiber.promise () in
  Fiber.submit t (fun () ->
      let ps = List.init 20 (fun i -> (i, Fiber.promise ())) in
      List.iter
        (fun (i, p) ->
          Fiber.spawn (fun () ->
              ignore (Atomic.fetch_and_add total i);
              Fiber.fulfill p ()))
        ps;
      List.iter (fun (_, p) -> Fiber.await p) ps;
      Fiber.fulfill done_ (Atomic.get total));
  let rec wait n =
    if n = 0 then Alcotest.fail "join fiber never finished"
    else
      match Fiber.peek done_ with
      | Some v -> v
      | None ->
        Unix.sleepf 2e-3;
        wait (n - 1)
  in
  let v = wait 5_000 in
  Fiber.shutdown t;
  Alcotest.(check int) "spawned fibers all ran before join" 190 v

let test_pool_error_accounting () =
  let t = Fiber.create ~workers:1 () in
  Fiber.submit t (fun () -> ());
  Fiber.submit t (fun () -> failwith "boom-7");
  Fiber.submit t (fun () -> ());
  Fiber.shutdown t;
  let s = Fiber.stats t in
  Alcotest.(check int) "error counted" 1 s.Fiber.errors;
  Alcotest.(check int) "erroring fiber still completes" 3 s.Fiber.completed;
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  match Fiber.last_error t with
  | Some msg ->
    if not (contains ~sub:"boom-7" msg) then
      Alcotest.failf "last_error %S does not mention boom-7" msg
  | None -> Alcotest.fail "last_error not retained"

(* A raising job neither kills its worker nor stays counted as live:
   submissions that never overlap, one of which raises, all run on the
   one worker that the first of them started. *)
let test_pool_error_keeps_worker () =
  let t = Fiber.create ~workers:2 () in
  let ok = Atomic.make 0 in
  let idle () = Fiber.remaining t = 0 in
  List.iter
    (fun job ->
      Fiber.submit t job;
      if not (within_10s idle) then Alcotest.fail "job never finished")
    [
      (fun () -> Atomic.incr ok);
      (fun () -> failwith "boom");
      (fun () -> Atomic.incr ok);
    ];
  Alcotest.(check int) "jobs around the error ran" 2 (Atomic.get ok);
  let s = Fiber.stats t in
  Alcotest.(check int) "error counted" 1 s.Fiber.errors;
  Alcotest.(check int) "one worker served all three" 1 s.Fiber.started;
  Fiber.shutdown t

let test_pool_blocked_shutdown () =
  (* a fiber parked on a promise nobody fulfills must not hang
     shutdown: the drain detects the stall and gives up, leaving the
     leak visible in [blocked] *)
  let t = Fiber.create ~workers:1 () in
  Fiber.submit t (fun () -> ignore (Fiber.await (Fiber.promise ())));
  let deadline = Unix.gettimeofday () +. 30. in
  Fiber.shutdown t;
  Alcotest.(check bool) "shutdown returned promptly" true
    (Unix.gettimeofday () < deadline);
  let s = Fiber.stats t in
  Alcotest.(check int) "leaked fiber visible" 1 s.Fiber.blocked

(* ---------------------- executor equivalence ------------------------ *)

let equiv_check name w run tol =
  let p = Workload.compile w in
  w.Workload.reset ();
  run p;
  let err = w.Workload.check () in
  if err > tol then Alcotest.failf "%s: err %g > %g" name err tol

let grains = [ 0; 1; 17; 300; max_int ]

let test_fiber_equivalence () =
  List.iter
    (fun workers ->
      List.iter
        (fun grain ->
          let tag k =
            Printf.sprintf "%s w=%d g=%d" k workers
              (if grain = max_int then -1 else grain)
          in
          equiv_check (tag "mm")
            (Matmul.workload ~n:16 ~base:2 ~seed:81 ())
            (Fiber.run ~workers ~grain) 1e-9;
          equiv_check (tag "trs")
            (Trs.workload ~n:16 ~base:2 ~seed:82 ())
            (Fiber.run ~workers ~grain) 1e-8;
          equiv_check (tag "lcs")
            (Lcs.workload ~n:32 ~base:4 ~seed:83 ())
            (Fiber.run ~workers ~grain) 0.)
        grains)
    [ 1; 2; 8 ]

(* --------------------- blocked promise chain ------------------------ *)

(* A compiled program never parks (below), so the park path is driven
   by waits the DAG does not know: [depth] server-pool jobs, each
   awaiting its predecessor's promise, submitted last link first.  The
   FIFO injector hands every link to a worker before the head of the
   chain, so nearly every link parks and they all wait at once.  With
   fibers >> workers this deadlocks any design where a blocked wait
   occupies a worker slot (2 workers cannot host ~1500 simultaneous
   waiters); the fiber pool must instead show massive parking and
   still finish. *)
let test_blocked_promise_chain () =
  let depth = 1_500 in
  let t = Fiber.create ~workers:2 () in
  let links = Array.init depth (fun _ -> Fiber.promise ()) in
  let counts = Array.init depth (fun _ -> Atomic.make 0) in
  for i = depth - 1 downto 0 do
    Fiber.submit t (fun () ->
        if i > 0 then Fiber.await links.(i - 1);
        Atomic.incr counts.(i);
        Fiber.fulfill links.(i) ())
  done;
  Fiber.shutdown t;
  let stats = Fiber.stats t in
  Array.iteri
    (fun i c ->
      if Atomic.get c <> 1 then
        Alcotest.failf "link %d ran %d times" i (Atomic.get c))
    counts;
  if stats.Fiber.suspensions < depth / 2 then
    Alcotest.failf "expected heavy parking, got %d suspensions"
      stats.Fiber.suspensions;
  if stats.Fiber.peak_blocked < 100 then
    Alcotest.failf "expected peak blocked >> workers, got %d"
      stats.Fiber.peak_blocked;
  Alcotest.(check int) "nothing left parked" 0 stats.Fiber.blocked

(* ------------------- compiled programs never park -------------------- *)

(* Every dependence of a compiled program is known before it runs, so a
   task's fiber starts only once its in-degree reaches zero: no fiber
   parks, one fiber runs per task, and the outputs are the serial
   elision's (compared through [check], the deviation from the serial
   kernels' reference, which equal outputs reproduce bit for bit). *)
let test_compiled_never_parks () =
  List.iter
    (fun (fam : Nd_experiments.Workloads.family) ->
      let n = List.hd fam.Nd_experiments.Workloads.sizes in
      let w = Nd_experiments.Workloads.build ~n fam ~seed:5 in
      List.iter
        (fun mode ->
          let p = Workload.compile ~mode w in
          let tasks grain = (Executor.task_graph ~grain p).Executor.tg_tasks in
          w.Workload.reset ();
          Serial_exec.run_sequential p;
          let serial = w.Workload.check () in
          List.iter
            (fun workers ->
              List.iter
                (fun grain ->
                  let tag =
                    Printf.sprintf "%s %s n=%d w=%d g=%d" fam.name
                      (Workload.mode_name mode) n workers
                      (if grain = max_int then -1 else grain)
                  in
                  w.Workload.reset ();
                  let s = Fiber.run_program ~workers ~grain p in
                  Alcotest.(check int) (tag ^ " suspensions") 0 s.Fiber.suspensions;
                  Alcotest.(check int) (tag ^ " peak blocked") 0 s.Fiber.peak_blocked;
                  Alcotest.(check int) (tag ^ " fibers") (tasks grain) s.Fiber.fibers;
                  Alcotest.(check int) (tag ^ " completed") (tasks grain) s.Fiber.completed;
                  let err = w.Workload.check () in
                  if not (Float.equal err serial) then
                    Alcotest.failf "%s: check %g, serial elision %g" tag err serial)
                [ 0; 17; max_int ])
            [ 1; 2; 8 ])
        [ Workload.ND; Workload.NP ])
    Nd_experiments.Workloads.all

(* ------------------ no false deadlock at completion ------------------ *)

(* [stalled] compares the parked count against the live count.  Read
   twice, a live count taken before the last fiber finished and one
   taken after made a completed run look stalled (0 parked = 0 live),
   and run_program raised [Deadlock {blocked = 0}].  The stall-window
   hook opens that window on purpose. *)
let with_stall_window f body =
  Fiber.Hooks.set_stall_window (Some f);
  Fun.protect ~finally:(fun () -> Fiber.Hooks.set_stall_window None) body

let one_strand ?action () =
  Program.compile ~registry:Fire_rule.empty_registry
    (Spawn_tree.leaf
       (Strand.make ~label:"only" ~work:1 ~reads:Nd_util.Interval_set.empty
          ~writes:Nd_util.Interval_set.empty ?action ()))

(* Deterministic, on one domain: the last fiber runs to completion
   exactly inside the window. *)
let test_stall_window_last_fiber () =
  let pool = Fiber.make_engine ~workers:1 (one_strand ()) in
  let stalled =
    with_stall_window
      (fun () -> while Fiber.try_advance pool 0 do () done)
      (fun () -> Fiber.stalled pool)
  in
  Alcotest.(check bool) "the last fiber finished inside the window" true
    (Fiber.finished pool);
  Alcotest.(check bool) "a finished pool is not stalled" false stalled

(* On two domains: one worker runs a 5 ms strand while the idle one
   keeps checking for deadlock through a 2 ms window, so the strand
   almost surely finishes inside some window.  Every run must complete
   without a deadlock report. *)
let test_stall_window_two_workers () =
  let ran = Atomic.make 0 in
  let p =
    one_strand
      ~action:(fun () ->
        Unix.sleepf 5e-3;
        Atomic.incr ran)
      ()
  in
  with_stall_window (fun () -> Unix.sleepf 2e-3) @@ fun () ->
  for run = 1 to 20 do
    match Fiber.run ~workers:2 p with
    | () -> ()
    | exception Fiber.Deadlock { blocked } ->
      Alcotest.failf "run %d: Deadlock {blocked = %d} on a completing run" run
        blocked
  done;
  Alcotest.(check int) "every run ran the strand" 20 (Atomic.get ran)

(* ------------------ three-way differential sweep -------------------- *)

(* Every generated program through all three backends at workers
   {1,2,8}: leaf counters must read exactly 1 everywhere, and for
   race-free programs the memory image must be bit-identical to the
   serial elision.  (The full oracle — serial orders, zoo, explorer —
   runs in test_conform and the fuzzer; this sweep is the focused
   cross-backend check at the worker counts the oracle's default
   config does not visit.) *)
let backends : (string * (workers:int -> Program.t -> unit)) list =
  [
    ("forkjoin", fun ~workers p -> Executor.run_fork_join ~workers p);
    ("dataflow", fun ~workers p -> Executor.run_dataflow ~workers p);
    ("fiber", fun ~workers p -> Fiber.run ~workers p);
  ]

let check_three_way ~seed =
  let spec = Gen.generate ~seed () in
  let inst = Gen.build spec in
  let program = Program.compile ~registry:inst.Gen.registry inst.Gen.tree in
  let nleaves = Array.length inst.Gen.counts in
  let race_free = Race.race_free (Program.dag program) in
  Gen.reset inst;
  Serial_exec.run_sequential program;
  let reference = Array.copy inst.Gen.memory in
  List.iter
    (fun (bname, run) ->
      List.iter
        (fun workers ->
          let tag = Printf.sprintf "seed %d %s w=%d" seed bname workers in
          Gen.reset inst;
          run ~workers program;
          for i = 0 to nleaves - 1 do
            let c = Atomic.get inst.Gen.counts.(i) in
            if c <> 1 then
              Alcotest.failf "%s: leaf %d executed %d times" tag i c
          done;
          if race_free && inst.Gen.memory <> reference then
            Alcotest.failf "%s: memory diverges from serial elision" tag)
        [ 1; 2; 8 ])
    backends

let test_three_way_sweep () =
  (* a fixed deterministic corpus for quick failure triage; the QCheck
     property below carries the >= 500-program load *)
  let count = max 60 (min 500 stress_iters) in
  for seed = 9_000 to 9_000 + count - 1 do
    check_three_way ~seed
  done

(* the acceptance-criterion form: >= 500 generated programs, each
   through all three backends at workers {1,2,8}, exactly-once plus
   memory equality.  The generator draws the spec seed, so a failure
   shrinks towards small seeds and is replayable via
   [check_three_way ~seed]. *)
let prop_three_way =
  QCheck2.Test.make ~name:"three-way backend equality, generated corpus"
    ~count:500
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      check_three_way ~seed;
      true)

let () =
  Alcotest.run "nd_fiber"
    [
      ( "pool",
        [
          Alcotest.test_case "promise basics and misuse" `Quick
            test_promise_basics;
          Alcotest.test_case "submit/shutdown exactly-once" `Quick
            test_pool_submit_shutdown;
          Alcotest.test_case "workers start on demand" `Quick
            test_pool_on_demand_start;
          Alcotest.test_case "submitters on many domains, exactly-once"
            `Quick test_pool_many_submitters;
          Alcotest.test_case "submit racing shutdown loses nothing" `Quick
            test_pool_submit_vs_shutdown;
          Alcotest.test_case "shutdown drains queued jobs" `Quick
            test_pool_shutdown_drains;
          Alcotest.test_case "off-pool fulfill resumes a parked fiber" `Quick
            test_pool_offpool_fulfill;
          Alcotest.test_case "spawn + promise join inside a pool" `Quick
            test_pool_spawn_await;
          Alcotest.test_case "error accounting + last_error" `Quick
            test_pool_error_accounting;
          Alcotest.test_case "a raising job keeps its worker" `Quick
            test_pool_error_keeps_worker;
          Alcotest.test_case "shutdown with a stuck fiber" `Quick
            test_pool_blocked_shutdown;
        ] );
      ( "program",
        [
          Alcotest.test_case "fiber = serial over workers x grain" `Quick
            test_fiber_equivalence;
          Alcotest.test_case "blocked promise chain, fibers >> workers"
            `Quick test_blocked_promise_chain;
          Alcotest.test_case "compiled programs never park" `Quick
            test_compiled_never_parks;
          Alcotest.test_case "no false deadlock: last fiber in the window"
            `Quick test_stall_window_last_fiber;
          Alcotest.test_case "no false deadlock: widened window, 2 workers"
            `Quick test_stall_window_two_workers;
          Alcotest.test_case "three-way backend sweep (generated)" `Quick
            test_three_way_sweep;
          QCheck_alcotest.to_alcotest prop_three_way;
        ] );
    ]
