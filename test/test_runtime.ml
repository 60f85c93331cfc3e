module Deque = Nd_runtime.Deque
module Executor = Nd_runtime.Executor
module Fiber = Nd_runtime.Fiber_exec
module Backend = Nd_runtime.Backend
open Nd
open Nd_algos

(* ------------------------------ deque ------------------------------ *)

let test_deque_lifo () =
  let d = Deque.create () in
  for i = 1 to 5 do
    Deque.push d i
  done;
  Alcotest.(check int) "size" 5 (Deque.size d);
  Alcotest.(check (option int)) "pop" (Some 5) (Deque.pop d);
  Alcotest.(check (option int)) "pop" (Some 4) (Deque.pop d);
  Alcotest.(check (option int)) "steal is FIFO" (Some 1) (Deque.steal d);
  Alcotest.(check (option int)) "steal" (Some 2) (Deque.steal d);
  Alcotest.(check (option int)) "pop last" (Some 3) (Deque.pop d);
  Alcotest.(check (option int)) "empty pop" None (Deque.pop d);
  Alcotest.(check (option int)) "empty steal" None (Deque.steal d)

let test_deque_growth () =
  let d = Deque.create () in
  for i = 0 to 999 do
    Deque.push d i
  done;
  for i = 999 downto 0 do
    Alcotest.(check (option int)) "pop order" (Some i) (Deque.pop d)
  done

let test_deque_concurrent () =
  (* 1 owner pushing/popping + 2 thieves: every element is consumed
     exactly once *)
  let d = Deque.create () in
  let n = 20_000 in
  let consumed = Atomic.make 0 in
  let sum = Atomic.make 0 in
  let thief () =
    while Atomic.get consumed < n do
      match Deque.steal d with
      | Some v ->
        Atomic.incr consumed;
        ignore (Atomic.fetch_and_add sum v)
      | None -> Domain.cpu_relax ()
    done
  in
  let thieves = [ Domain.spawn thief; Domain.spawn thief ] in
  for i = 1 to n do
    Deque.push d i;
    if i mod 3 = 0 then
      match Deque.pop d with
      | Some v ->
        Atomic.incr consumed;
        ignore (Atomic.fetch_and_add sum v)
      | None -> ()
  done;
  (* owner drains the rest *)
  let rec drain () =
    match Deque.pop d with
    | Some v ->
      Atomic.incr consumed;
      ignore (Atomic.fetch_and_add sum v);
      drain ()
    | None -> if Atomic.get consumed < n then drain ()
  in
  drain ();
  List.iter Domain.join thieves;
  Alcotest.(check int) "all consumed" n (Atomic.get consumed);
  Alcotest.(check int) "sum preserved" (n * (n + 1) / 2) (Atomic.get sum)

(* ---------------------------- executors ---------------------------- *)

let exec_check name w run tol =
  let p = Workload.compile w in
  w.Workload.reset ();
  run p;
  let err = w.Workload.check () in
  if err > tol then Alcotest.failf "%s: err %g > %g" name err tol

let test_dataflow_correct () =
  List.iter
    (fun workers ->
      exec_check "mm"
        (Matmul.workload ~n:16 ~base:2 ~seed:31 ())
        (Executor.run_dataflow ~workers) 1e-9;
      exec_check "trs"
        (Trs.workload ~n:16 ~base:2 ~seed:32 ())
        (Executor.run_dataflow ~workers) 1e-8;
      exec_check "cholesky"
        (Cholesky.workload ~n:16 ~base:2 ~seed:33 ())
        (Executor.run_dataflow ~workers) 1e-8;
      exec_check "lcs"
        (Lcs.workload ~n:32 ~base:4 ~seed:34 ())
        (Executor.run_dataflow ~workers) 0.;
      exec_check "apsp"
        (Fw2d.workload ~n:16 ~base:2 ~seed:35 ())
        (Executor.run_dataflow ~workers) 1e-12)
    [ 1; 2; 4 ]

let test_fork_join_correct () =
  List.iter
    (fun workers ->
      exec_check "mm"
        (Matmul.workload ~n:16 ~base:2 ~seed:41 ())
        (Executor.run_fork_join ~workers) 1e-9;
      exec_check "lu"
        (Lu.workload ~n:16 ~base:2 ~seed:42 ())
        (Executor.run_fork_join ~workers) 1e-8;
      exec_check "fw1d"
        (Fw1d.workload ~n:32 ~base:4 ~seed:43 ())
        (Executor.run_fork_join ~workers) 0.)
    [ 1; 2; 4 ]

let test_repeated_runs () =
  (* executors are restartable on the same program after reset *)
  let w = Trs.workload ~n:16 ~base:4 ~seed:51 () in
  let p = Workload.compile w in
  for _ = 1 to 3 do
    w.Workload.reset ();
    Executor.run_dataflow ~workers:2 p;
    Alcotest.(check bool) "correct" true (w.Workload.check () < 1e-8)
  done

(* --------------------------- parallel_for -------------------------- *)

exception Boom of int

let test_pfor_exactly_once () =
  List.iter
    (fun workers ->
      let n = 500 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Executor.parallel_for ~workers n (fun _ i -> Atomic.incr hits.(i));
      Array.iteri
        (fun i c ->
          if Atomic.get c <> 1 then
            Alcotest.failf "workers=%d: i=%d ran %d times" workers i
              (Atomic.get c))
        hits)
    [ 1; 2; 8 ]

let test_pfor_exception_propagates () =
  (* an exception in one iteration must surface to the caller — with its
     backtrace carried across the domain join — and must not corrupt the
     other iterations: claimed ones complete exactly once, unclaimed
     ones are abandoned whole (never half-run) *)
  Printexc.record_backtrace true;
  List.iter
    (fun workers ->
      let n = 100 in
      let started = Array.init n (fun _ -> Atomic.make 0) in
      let finished = Array.init n (fun _ -> Atomic.make 0) in
      (match
         Executor.parallel_for ~workers n (fun _ i ->
             Atomic.incr started.(i);
             if i = 37 then raise (Boom i);
             Atomic.incr finished.(i))
       with
      | () -> Alcotest.failf "workers=%d: expected Boom" workers
      | exception Boom 37 ->
        if workers > 1 && Printexc.raw_backtrace_length (Printexc.get_raw_backtrace ()) = 0
        then Alcotest.failf "workers=%d: backtrace lost across join" workers
      | exception e ->
        Alcotest.failf "workers=%d: wrong exception %s" workers
          (Printexc.to_string e));
      Array.iteri
        (fun i c ->
          let s = Atomic.get c and f = Atomic.get finished.(i) in
          if s > 1 then
            Alcotest.failf "workers=%d: i=%d started %d times" workers i s;
          if i = 37 then begin
            if f <> 0 then Alcotest.failf "workers=%d: raiser finished" workers
          end
          else if s <> f then
            Alcotest.failf "workers=%d: i=%d started %d but finished %d"
              workers i s f)
        started)
    [ 1; 2; 8 ]

(* a Par of 64 unit strands, strand [k] running [action k] after 50 us,
   so that every worker of a run gets some *)
let par_strands action =
  Program.compile ~registry:Fire_rule.empty_registry
    (Spawn_tree.par
       (List.init 64 (fun k ->
            Spawn_tree.leaf
              (Strand.make ~label:(string_of_int k) ~work:1
                 ~reads:Nd_util.Interval_set.empty
                 ~writes:Nd_util.Interval_set.empty
                 ~action:(fun () ->
                   Unix.sleepf 5e-5;
                   action k)
                 ()))))

(* the distinct domains that ran a strand over [runs] runs of [run] *)
let domains_running ?(runs = 1) run =
  let ids = Hashtbl.create 4 and lock = Mutex.create () in
  let p =
    par_strands (fun _ ->
        let d = (Domain.self () :> int) in
        Mutex.protect lock (fun () -> Hashtbl.replace ids d ()))
  in
  for _ = 1 to runs do
    run p
  done;
  List.of_seq (Hashtbl.to_seq_keys ids)

let test_pfor_nested () =
  (* a parallel_for body may itself call parallel_for or run a program:
     a nested call borrows an idle helper or spawns one, so nesting
     composes (the sharded cache replay and E9's backend runs sit inside
     suite experiments that are themselves parallel_for jobs) *)
  let outer = 4 and inner = 8 in
  let hits = Array.init (outer * inner) (fun _ -> Atomic.make 0) in
  Executor.parallel_for ~workers:2 outer (fun _ o ->
      Executor.parallel_for ~workers:2 inner (fun _ i ->
          Atomic.incr hits.((o * inner) + i));
      (* E9's check, per outer iteration: the serial elision and a
         2-worker fiber run both reproduce the reference *)
      let w = Lcs.workload ~n:32 ~base:4 ~seed:(60 + o) () in
      exec_check "nested serial" w (fun p -> Serial_exec.run p) 0.;
      exec_check "nested fiber" w (Fiber.run ~workers:2) 0.);
  Array.iteri
    (fun k c ->
      if Atomic.get c <> 1 then
        Alcotest.failf "nested cell %d ran %d times" k (Atomic.get c))
    hits;
  (* the fiber runs left a helper parked: a top-level dataflow run
     borrows it, so no strand runs on a domain spawned after the fence *)
  let fence = Domain.join (Domain.spawn (fun () -> (Domain.self () :> int))) in
  List.iter
    (fun d ->
      if d > fence then
        Alcotest.failf "dataflow ran on domain %d, spawned after the fence %d" d
          fence)
    (domains_running (Executor.run_dataflow ~workers:2));
  (* an inner exception unwinds through both levels *)
  match
    Executor.parallel_for ~workers:2 outer (fun _ _ ->
        Executor.parallel_for ~workers:2 inner (fun _ i ->
            if i = 3 then raise (Boom 3)))
  with
  | () -> Alcotest.fail "expected Boom through nesting"
  | exception Boom 3 -> ()

(* ------------------------------- crew ------------------------------ *)

(* [f ()] on a thread, waited for at most [secs]: a hung runtime call
   fails the test instead of hanging the suite (the hung thread is left
   behind; the executable still exits) *)
let within ~secs what f =
  let result = Atomic.make None in
  ignore
    (Thread.create
       (fun () -> Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
       ());
  let deadline = Unix.gettimeofday () +. secs in
  let rec wait () =
    match Atomic.get result with
    | Some r -> r
    | None ->
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "watchdog: %s did not return within %.0f s" what secs;
      Unix.sleepf 1e-3;
      wait ()
  in
  wait ()

let test_raising_strand () =
  (* a strand that raises, whichever worker runs it, stops every worker
     and its failure reaches the caller before the deadline; the same
     backend then runs a clean program to completion *)
  List.iter
    (fun (module B : Backend.S) ->
      List.iter
        (fun workers ->
          List.iter
            (fun target ->
              let tag =
                Printf.sprintf "%s w=%d strand %d raises" B.name workers target
              in
              let p = par_strands (fun k -> if k = target then failwith tag) in
              (match within ~secs:10. tag (fun () -> B.run ~workers p) with
              | Error (Failure m) when m = tag -> ()
              | Ok () -> Alcotest.failf "%s: returned normally" tag
              | Error e ->
                Alcotest.failf "%s: raised %s" tag (Printexc.to_string e));
              let ran = Atomic.make 0 in
              let clean = par_strands (fun _ -> Atomic.incr ran) in
              let what = tag ^ ", then a clean run" in
              (match within ~secs:10. what (fun () -> B.run ~workers clean) with
              | Ok () -> ()
              | Error e ->
                Alcotest.failf "%s: raised %s" what (Printexc.to_string e));
              Alcotest.(check int) what 64 (Atomic.get ran))
            [ 0; 1; 63 ])
        [ 1; 2; 8 ])
    Backend.all

let test_helpers_reused () =
  (* back-to-back fiber runs borrow the helper the previous run parked
     instead of spawning a domain per run *)
  let ids = domains_running ~runs:20 (Fiber.run ~workers:2) in
  if List.length ids > 2 then
    Alcotest.failf "20 two-worker fiber runs ran on %d distinct domains"
      (List.length ids)

let () =
  Alcotest.run "nd_runtime"
    [
      ( "deque",
        [
          Alcotest.test_case "LIFO/FIFO" `Quick test_deque_lifo;
          Alcotest.test_case "growth" `Quick test_deque_growth;
          Alcotest.test_case "concurrent owner+thieves" `Quick
            test_deque_concurrent;
        ] );
      ( "executors",
        [
          Alcotest.test_case "dataflow correct" `Quick test_dataflow_correct;
          Alcotest.test_case "fork-join correct" `Quick test_fork_join_correct;
          Alcotest.test_case "repeated runs" `Quick test_repeated_runs;
        ] );
      ( "parallel_for",
        [
          Alcotest.test_case "exactly once" `Quick test_pfor_exactly_once;
          Alcotest.test_case "exception propagates with backtrace" `Quick
            test_pfor_exception_propagates;
          Alcotest.test_case "nested calls compose" `Quick test_pfor_nested;
        ] );
      ( "crew",
        [
          Alcotest.test_case "a raising strand stops every backend" `Quick
            test_raising_strand;
          Alcotest.test_case "fiber runs reuse the parked helper" `Quick
            test_helpers_reused;
        ] );
    ]
