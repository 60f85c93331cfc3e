(* Conformance tests: the generative harness (Nd_check) applied as a
   fixed regression suite — a seeded spec corpus through the
   differential oracle, the paper's algorithm workloads as oracle
   inputs, negative tests that prove the race detector / rule diagnosis
   / interleaving explorer actually catch the bug classes they exist
   for, and a mutation smoke test that re-introduces the pre-hardening
   deque bug behind a hook and checks the explorer finds it.

   NDSIM_STRESS_ITERS scales the generated-corpus size (default 3;
   the canonical soak value used by nightly CI is 1000). *)

module Gen = Nd_check.Gen
module Oracle = Nd_check.Oracle
module Explore = Nd_check.Explore
module Deque = Nd_runtime.Deque
module Fiber = Nd_runtime.Fiber_exec
module Race = Nd_dag.Race
module Esp = Nd_analyze.Esp_bags
open Nd

let stress_iters =
  match Sys.getenv_opt "NDSIM_STRESS_ITERS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 3)
  | None -> 3

(* --------------------- generated-spec corpus ------------------------ *)

(* the capacities Theorem 1 reads at every sigma of the oracle's sweep,
   plus m = 1 and 2, where nearly every inner node is glue *)
let oracle_ms =
  let machine = Oracle.machine in
  List.sort_uniq compare
    (1 :: 2
    :: List.concat_map
         (fun sigma ->
           List.init (Nd_pmh.Pmh.n_levels machine) (fun j ->
               max 1
                 (int_of_float
                    (sigma *. float_of_int (Nd_pmh.Pmh.size machine ~level:(j + 1))))))
         Oracle.sigmas)

let test_spec_corpus () =
  (* bounded soak: 20 specs per stress iteration, seeds disjoint from
     the CI fuzz job's base seed 42 *)
  let count = min 2_000 (20 * stress_iters) in
  for seed = 1_000 to 1_000 + count - 1 do
    let spec = Gen.generate ~seed () in
    match Oracle.check_spec spec with
    | Ok r ->
      (* the oracle's one ESP-bags pass against the exhaustive search *)
      let inst = Gen.build spec in
      let p = Program.compile ~registry:inst.Gen.registry inst.Gen.tree in
      let exact = Race_ref.race_free (Program.dag p) in
      if r.Oracle.race_free <> exact then
        Alcotest.failf "seed %d: oracle race_free=%b, exact race_free=%b@.%a"
          seed r.Oracle.race_free exact Gen.pp spec;
      (* its span, the fire pairs and Pcc's Q* against the compile-free
         references *)
      let ts = Cost_ref.tree_span ~registry:inst.Gen.registry inst.Gen.tree in
      if (r.Oracle.span, Program.n_fire_edges p)
         <> (ts.Cost_ref.span, ts.Cost_ref.n_fire_edges)
      then
        Alcotest.failf "seed %d: span and fire pairs (%d, %d) <> the tree's (%d, %d)"
          seed r.Oracle.span (Program.n_fire_edges p) ts.Cost_ref.span
          ts.Cost_ref.n_fire_edges;
      let want = Cost_ref.of_tree inst.Gen.tree in
      List.iter
        (fun m ->
          let q = Nd_mem.Pcc.q_star p ~m and qr = Cost_ref.q_star want ~m in
          if q <> qr then
            Alcotest.failf "seed %d: Pcc Q*(m=%d) %d <> the tree's %d" seed m q qr)
        oracle_ms
    | Error f ->
      let shrunk =
        Gen.shrink spec ~still_fails:(fun s ->
            Result.is_error (Oracle.check_spec s))
      in
      Alcotest.failf "seed %d: %a@.shrunk:@.%a" seed Oracle.pp_failure f
        Gen.pp shrunk
  done

(* ----------------------- workload corpus ---------------------------- *)

(* The paper's algorithms at small sizes: MM (and the 8-way NP MM),
   TRS (whose update step is MMS), Cholesky, LU, FW-2D (apsp), FW-1D
   and LCS.  [check_workload] expects race-freedom and numeric
   agreement with the serial kernels on every executing path. *)
let conform_families =
  [
    ("mm", 4, 2); ("mm8", 4, 2); ("trs", 4, 2); ("cholesky", 4, 2);
    ("lu", 4, 2); ("apsp", 4, 2); ("fw1d", 4, 2); ("lcs", 8, 2);
  ]

let test_workload name n base () =
  let fam = Nd_experiments.Workloads.find name in
  let w = Nd_experiments.Workloads.build ~n ~base fam ~seed:7 in
  match Oracle.check_workload w with
  | Ok r ->
    Alcotest.(check bool) "race free" true r.Oracle.race_free;
    if r.Oracle.paths < 5 then
      Alcotest.failf "only %d paths checked" r.Oracle.paths
  | Error f -> Alcotest.failf "%s: %a" name Oracle.pp_failure f

(* ------------------------ negative: MM literal ----------------------- *)

(* The paper's printed MM rule set leaves (src second half, snk first
   half) unordered; the oracle, the race detector and the rule
   diagnosis must all report it.  n = 8 is the smallest size where the
   literal rules differ from full edges (at n = 4 the fire connects two
   leaves, which the DRS serializes outright). *)
let test_mm_literal_rejected () =
  let w =
    Nd_algos.Matmul.workload ~variant:Nd_algos.Matmul.Literal ~n:8 ~base:2
      ~seed:7 ()
  in
  (match Oracle.check_workload w with
  | Ok _ -> Alcotest.fail "oracle accepted the racy literal MM rules"
  | Error f -> Alcotest.(check string) "failing stage" "race" f.Oracle.stage);
  let p = Nd_algos.Workload.compile w in
  (match Esp.find_races p with
  | [] -> Alcotest.fail "no race found in literal MM"
  | r :: _ ->
    Alcotest.(check bool) "write/write overlap" true r.Race.write_write);
  match Esp.diagnose ~limit:1 p with
  | [] -> Alcotest.fail "no diagnosis for literal MM"
  | f :: _ -> (
    match f.Rule_check.lca_kind with
    | Program.Fire "MM_literal" -> ()
    | _ -> Alcotest.fail "race not lifted to the MM fire construct")

(* ---------------- negative: one rule removed from a set -------------- *)

(* F = (A ; B), G = (C ; D), composed with fire FG.  A writes {0} which
   D reads; B writes {1} which C reads.  The correct set carries both
   orderings; dropping +<2> ~> -<1> leaves exactly the pair (B, C)
   unordered, and the diagnosis must name the fire node and the two
   pedigrees of the offending strands. *)
let fg_program rules =
  let is = Nd_util.Interval_set.interval in
  let s label ~reads ~writes =
    Spawn_tree.leaf (Strand.make ~label ~work:1 ~reads ~writes ())
  in
  let e = Nd_util.Interval_set.empty in
  let f =
    Spawn_tree.seq
      [ s "A" ~reads:e ~writes:(is 0 1); s "B" ~reads:e ~writes:(is 1 2) ]
  and g =
    Spawn_tree.seq
      [ s "C" ~reads:(is 1 2) ~writes:e; s "D" ~reads:(is 0 1) ~writes:e ]
  in
  let reg = Fire_rule.define Fire_rule.empty_registry "FG" rules in
  Program.compile ~registry:reg (Spawn_tree.fire ~rule:"FG" f g)

let a_before_d = Fire_rule.rule [ 1 ] Fire_rule.Full [ 2 ]

let b_before_c = Fire_rule.rule [ 2 ] Fire_rule.Full [ 1 ]

let test_complete_rule_set_clean () =
  let p = fg_program [ a_before_d; b_before_c ] in
  Alcotest.(check bool) "race free" true (Esp.race_free p);
  Alcotest.(check int) "no findings" 0 (List.length (Esp.diagnose p))

let test_dropped_rule_diagnosed () =
  let p = fg_program [ a_before_d ] in
  Alcotest.(check bool) "racy" false (Esp.race_free p);
  match Esp.diagnose p with
  | [ f ] ->
    (match f.Rule_check.lca_kind with
    | Program.Fire "FG" -> ()
    | _ -> Alcotest.fail "LCA is not the FG fire node");
    Alcotest.(check string) "src pedigree (B)" "<1.2>"
      (Pedigree.to_string f.Rule_check.src_pedigree);
    Alcotest.(check string) "dst pedigree (C)" "<2.1>"
      (Pedigree.to_string f.Rule_check.dst_pedigree);
    Alcotest.(check bool) "read/write race" false f.Rule_check.race.Race.write_write
  | other -> Alcotest.failf "expected exactly 1 finding, got %d" (List.length other)

(* ------------------------- explorer: engine -------------------------- *)

let explore_seeds = List.init (max 10 stress_iters) (fun i -> i)

let test_explore_program () =
  let spec = Gen.generate ~seed:7 () in
  let inst = Gen.build spec in
  let program = Program.compile ~registry:inst.Gen.registry inst.Gen.tree in
  let reset () = Gen.reset inst in
  let check () =
    if Array.for_all (fun c -> Atomic.get c = 1) inst.Gen.counts then Ok ()
    else Error "some strand did not run exactly once"
  in
  (match
     Explore.explore_program ~workers:2
       ~mode:(Explore.Random { seeds = explore_seeds })
       ~reset ~check program
   with
  | Ok s -> Alcotest.(check int) "all seeds ran" (List.length explore_seeds) s.Explore.runs
  | Error f -> Alcotest.failf "random walk: %a" Explore.pp_failure f);
  match
    Explore.explore_program ~workers:2
      ~mode:(Explore.Exhaustive { max_runs = 50 * stress_iters })
      ~reset ~check program
  with
  | Ok s -> if s.Explore.runs = 0 then Alcotest.fail "no schedules explored"
  | Error f -> Alcotest.failf "exhaustive: %a" Explore.pp_failure f

(* -------------------------- explorer: deque -------------------------- *)

let test_explore_deque_healthy () =
  (match Explore.explore_deque ~mode:(Explore.Random { seeds = explore_seeds }) () with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "random walk: %a" Explore.pp_failure f);
  match
    Explore.explore_deque
      ~mode:(Explore.Exhaustive { max_runs = 100 * stress_iters })
      ~n_thieves:1 ~pushes:6 ()
  with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "exhaustive: %a" Explore.pp_failure f

(* Mutation smoke test: re-enable the retired-buffer recycling bug
   (PR 2 hardened this path) and require the explorer to find it within
   a fixed seed range — i.e. the harness detects the bug class it was
   built for, deterministically.  On trunk (hook off) the same seeds
   must pass; that is [test_explore_deque_healthy] above, which uses a
   prefix of the same seed list. *)
let test_explore_deque_mutation () =
  let seeds = List.init 20 (fun i -> i) in
  Deque.Hooks.set_drop_retired true;
  Fun.protect
    ~finally:(fun () -> Deque.Hooks.set_drop_retired false)
    (fun () ->
      match Explore.explore_deque ~mode:(Explore.Random { seeds }) () with
      | Ok s ->
        Alcotest.failf
          "mutant survived %d seeded schedules: explorer lost its teeth"
          s.Explore.runs
      | Error f ->
        (match f.Explore.seed with
        | Some _ -> ()
        | None -> Alcotest.fail "failure carries no replay seed");
        let expected = "consumed index holds no value" in
        let msg = f.Explore.message in
        let found =
          let lm = String.length msg and le = String.length expected in
          let rec scan i =
            i + le <= lm && (String.sub msg i le = expected || scan (i + 1))
          in
          scan 0
        in
        if not found then
          Alcotest.failf "unexpected failure mode: %s" msg)

(* ---------------------- explorer: fiber engine ----------------------- *)

(* the fiber scheduler under the same schedule explorer as the deque
   engine: every interleaving of a generated program must run each
   strand exactly once and leave no fiber parked *)
let test_explore_fiber_program () =
  let spec = Gen.generate ~seed:7 () in
  let inst = Gen.build spec in
  let program = Program.compile ~registry:inst.Gen.registry inst.Gen.tree in
  let reset () = Gen.reset inst in
  let check () =
    if Array.for_all (fun c -> Atomic.get c = 1) inst.Gen.counts then Ok ()
    else Error "some strand did not run exactly once"
  in
  (match
     Explore.explore_fiber_program ~workers:2
       ~mode:(Explore.Random { seeds = explore_seeds })
       ~reset ~check program
   with
  | Ok s ->
    Alcotest.(check int) "all seeds ran" (List.length explore_seeds)
      s.Explore.runs
  | Error f -> Alcotest.failf "random walk: %a" Explore.pp_failure f);
  match
    Explore.explore_fiber_program ~workers:2
      ~mode:(Explore.Exhaustive { max_runs = 50 * stress_iters })
      ~reset ~check program
  with
  | Ok s -> if s.Explore.runs = 0 then Alcotest.fail "no schedules explored"
  | Error f -> Alcotest.failf "exhaustive: %a" Explore.pp_failure f

(* The explorer's preemption hooks are process-wide while a schedule
   runs on one domain.  A server pool runs fuzz requests, and so the
   explorer, beside workers popping their deques; such a domain must
   pass the hooks, where it used to perform the explorer's [Yield] with
   no handler and die. *)
let test_explore_beside_other_domains () =
  let stop = Atomic.make false in
  let bystander =
    Domain.spawn (fun () ->
        let d = Deque.create () in
        match
          while not (Atomic.get stop) do
            Deque.push d ();
            ignore (Deque.pop d)
          done
        with
        | () -> None
        | exception e -> Some (Printexc.to_string e))
  in
  let explored =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true)
      (fun () ->
        Explore.explore_deque
          ~mode:(Explore.Random { seeds = explore_seeds })
          ())
  in
  Alcotest.(check (option string)) "bystander domain unharmed" None
    (Domain.join bystander);
  match explored with
  | Ok s ->
    Alcotest.(check int) "all seeds ran" (List.length explore_seeds)
      s.Explore.runs
  | Error f -> Alcotest.failf "random walk: %a" Explore.pp_failure f

(* A fiber-only program: two parallel strands hand a value through a
   promise the DAG does not know about — one awaits it, its sibling
   fulfills it.  The serial elision would await first and fail, so only
   the fiber backend runs it, and there the await can park, which a
   compiled program's own edges never do.  [reset] gives each schedule
   a fresh promise. *)
let promise_handoff () =
  let link = ref (Fiber.promise ()) in
  let strand label action =
    Spawn_tree.leaf
      (Strand.make ~label ~work:1 ~reads:Nd_util.Interval_set.empty
         ~writes:Nd_util.Interval_set.empty ~action ())
  in
  let program =
    Program.compile ~registry:Fire_rule.empty_registry
      (Spawn_tree.par
         [
           strand "await" (fun () -> Fiber.await !link);
           strand "fulfill" (fun () -> Fiber.fulfill !link ());
         ])
  in
  (program, fun () -> link := Fiber.promise ())

(* Lost-wakeup mutation: the hook replaces [await]'s park CAS with a
   blind store, recreating the classic sleep/wakeup race — an await
   reads Pending, loses the processor to the fulfiller (which swings
   the promise to Fulfilled and finds no waiter to wake), then blindly
   overwrites the fulfilled state and parks forever.  The explorer must
   drive the scheduler into that window within a fixed seed range; the
   stranded fiber surfaces through the built-in stall check.  On trunk
   (hook off) the same engine passes [test_explore_fiber_program]. *)
let test_explore_fiber_lost_wakeup () =
  let p, reset = promise_handoff () in
  let seeds = List.init (max 100 (10 * stress_iters)) (fun i -> i) in
  Fiber.Hooks.set_lost_wakeup true;
  Fun.protect
    ~finally:(fun () -> Fiber.Hooks.set_lost_wakeup false)
    (fun () ->
      match
        Explore.explore_fiber_program ~workers:2
          ~mode:(Explore.Random { seeds })
          ~reset p
      with
      | Ok s ->
        Alcotest.failf
          "lost-wakeup mutant survived %d seeded schedules: explorer lost \
           its teeth"
          s.Explore.runs
      | Error f -> (
        (match f.Explore.seed with
        | Some _ -> ()
        | None -> Alcotest.fail "failure carries no replay seed");
        match f.Explore.message with
        | msg
          when String.length msg > 0
               (* stall check or exactly-once check, depending on where
                  the schedule strands the waiter *) ->
          ()
        | msg -> Alcotest.failf "empty failure message: %s" msg));
  (* healthy re-run on the same program: the abandoned schedules'
     suspended fibers were discontinued and the explorer hooks cleared,
     so the scheduler must be fully reusable in-process *)
  match
    Explore.explore_fiber_program ~workers:2
      ~mode:(Explore.Random { seeds = explore_seeds })
      ~reset p
  with
  | Ok _ -> ()
  | Error f ->
    Alcotest.failf "healthy re-run after mutation failed: %a"
      Explore.pp_failure f

let () =
  Alcotest.run "nd_conform"
    [
      ( "oracle",
        Alcotest.test_case "generated spec corpus" `Slow test_spec_corpus
        :: List.map
             (fun (name, n, base) ->
               Alcotest.test_case
                 (Printf.sprintf "workload %s n=%d" name n)
                 `Quick (test_workload name n base))
             conform_families );
      ( "negative",
        [
          Alcotest.test_case "literal MM rules rejected" `Quick
            test_mm_literal_rejected;
          Alcotest.test_case "complete FG rule set clean" `Quick
            test_complete_rule_set_clean;
          Alcotest.test_case "dropped FG rule diagnosed" `Quick
            test_dropped_rule_diagnosed;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "engine: random + exhaustive" `Quick
            test_explore_program;
          Alcotest.test_case "deque: healthy" `Quick test_explore_deque_healthy;
          Alcotest.test_case "deque: seeded mutation is found" `Quick
            test_explore_deque_mutation;
          Alcotest.test_case "fiber: random + exhaustive" `Quick
            test_explore_fiber_program;
          Alcotest.test_case "hooks pass other domains" `Quick
            test_explore_beside_other_domains;
          Alcotest.test_case "fiber: lost wakeup is found" `Quick
            test_explore_fiber_lost_wakeup;
        ] );
    ]
