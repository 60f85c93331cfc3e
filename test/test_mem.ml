module Is = Nd_util.Interval_set
open Nd
open Nd_algos

let compile w = Nd_algos.Workload.compile w

(* hand-checkable program: Par of 4 strands of size 4 each (disjoint) *)
let quad_program () =
  let strand label lo =
    Spawn_tree.leaf
      (Strand.make ~label ~work:4 ~reads:Is.empty ~writes:(Is.interval lo (lo + 4)) ())
  in
  let tree =
    Spawn_tree.par
      [
        Spawn_tree.par [ strand "a" 0; strand "b" 4 ];
        Spawn_tree.par [ strand "c" 8; strand "d" 12 ];
      ]
  in
  Program.compile ~registry:Fire_rule.empty_registry tree

(* ------------------------------ Q* --------------------------------- *)

let test_qstar_hand () =
  let p = quad_program () in
  (* m = 16: the root is one maximal task: Q* = 16 *)
  Alcotest.(check int) "m=16" 16 (Nd_mem.Pcc.q_star p ~m:16);
  (* m = 8: two tasks of 8, one glue node: 8+8+1 *)
  Alcotest.(check int) "m=8" 17 (Nd_mem.Pcc.q_star p ~m:8);
  (* m = 4: four tasks of 4, three glue *)
  Alcotest.(check int) "m=4" 19 (Nd_mem.Pcc.q_star p ~m:4)

let test_qstar_shape_mm () =
  (* Claim 1: Q*(N; M) = Theta(n^3 / sqrt(M)): quadrupling M halves Q* *)
  let w = Matmul.workload ~n:32 ~base:2 ~seed:1 () in
  let p = compile w in
  let q64 = Nd_mem.Pcc.q_star p ~m:64 in
  let q256 = Nd_mem.Pcc.q_star p ~m:256 in
  let ratio = float_of_int q64 /. float_of_int q256 in
  if ratio < 1.5 || ratio > 3. then
    Alcotest.failf "expected ~2x drop, got %.2f (q64=%d q256=%d)" ratio q64 q256

let test_qstar_shape_lcs () =
  (* Our LCS materializes the DP table (static allocation), so its Q* is
     Theta(n^2) plus a boundary term declining in M — NOT the paper's
     O(n^2/M), which presumes the O(n)-space frontier formulation with
     buffer reuse (see EXPERIMENTS.md).  Check the actual shape: Q* stays
     within a small constant of the table size and decreases with M. *)
  let n = 128 in
  let w = Lcs.workload ~n ~base:2 ~seed:1 () in
  let p = compile w in
  let q64 = Nd_mem.Pcc.q_star p ~m:64 in
  let q1024 = Nd_mem.Pcc.q_star p ~m:1024 in
  let table = (n + 1) * (n + 1) in
  Alcotest.(check bool) "monotone in M" true (q1024 <= q64);
  Alcotest.(check bool) "at least the table" true (q1024 >= table);
  Alcotest.(check bool) "within 3x of the table" true (q64 <= 3 * table)

let test_qstar_np_invariant () =
  (* the spawn tree is unchanged between models, so Q* is identical *)
  let w = Trs.workload ~n:16 ~base:2 ~seed:1 () in
  let pnd = compile w and pnp = Nd_algos.Workload.compile ~mode:Nd_algos.Workload.NP w in
  List.iter
    (fun m ->
      Alcotest.(check int)
        (Printf.sprintf "m=%d" m)
        (Nd_mem.Pcc.q_star pnd ~m)
        (Nd_mem.Pcc.q_star pnp ~m))
    [ 8; 32; 128; 512 ]

(* --------------------------- cache sim ----------------------------- *)

(* one word touched: true on a miss *)
let access c a = Nd_mem.Cache_sim.access_set c (Is.interval a (a + 1)) = 1

(* the same hand trace through the simulator and the word-exact
   reference *)
let test_lru_basic () =
  let c = Nd_mem.Cache_sim.create ~m:2 () and r = Lru_ref.create ~m:2 in
  let step name expected a =
    Alcotest.(check bool) name expected (access c a);
    Alcotest.(check bool) (name ^ " (reference)") expected (Lru_ref.access r a)
  in
  step "1 miss" true 1;
  step "2 miss" true 2;
  step "1 hit" false 1;
  (* 3 evicts 2 (LRU) *)
  step "3 miss" true 3;
  step "1 still hit" false 1;
  step "2 evicted" true 2;
  Alcotest.(check int) "misses" 4 (Nd_mem.Cache_sim.misses c);
  Alcotest.(check int) "reference misses" 4 (Lru_ref.misses r);
  Alcotest.(check int) "reference accesses" 6 (Lru_ref.accesses r)

let test_lru_set () =
  let c = Nd_mem.Cache_sim.create ~m:8 () in
  let fp = Is.of_intervals [ (0, 4); (10, 14) ] in
  Alcotest.(check int) "cold" 8 (Nd_mem.Cache_sim.access_set c fp);
  Alcotest.(check int) "warm" 0 (Nd_mem.Cache_sim.access_set c fp)

let test_q1_bounds () =
  (* Q1 with an infinite cache = root size; with m=1 >= total work's
     touches; and Q1 <= Q* (the PCC never undercounts the serial
     traversal) for our algorithms *)
  let w = Matmul.workload ~n:16 ~base:2 ~seed:2 () in
  let p = compile w in
  let root_size = Program.size p (Program.root p) in
  Alcotest.(check int) "infinite cache" root_size
    (Nd_mem.Cache_sim.q1 p ~m:(root_size * 2));
  List.iter
    (fun m ->
      let q1 = Nd_mem.Cache_sim.q1 p ~m in
      let qs = Nd_mem.Pcc.q_star p ~m in
      if q1 > qs then Alcotest.failf "m=%d: Q1 %d > Q* %d" m q1 qs)
    [ 16; 64; 256 ]

(* ---------------- interval-LRU vs word-exact LRU ------------------- *)

module Cs = Nd_mem.Cache_sim
module Prng = Nd_util.Prng

let stress_iters =
  match Sys.getenv_opt "NDSIM_STRESS_ITERS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 3)
  | None -> 3

(* hand-built sequence forcing the interesting interval transitions:
   partial-hit splits, partial (left-shrink) evictions, and an access
   larger than the whole cache (self-eviction) *)
let test_interval_split_evict () =
  let trace access_set misses c =
    let h = ref [] in
    let record (x : int) = h := x :: !h in
    let word a = access_set c (Is.interval a (a + 1)) in
    record (access_set c (Is.interval 0 4));
    (* cold fill *)
    record (access_set c (Is.interval 10 12));
    (* evicts the two oldest words: [0,2) out, [2,4) stays *)
    record (word 2);
    record (word 0);
    (* partial hit across the resident tail and a fresh run *)
    record (access_set c (Is.of_intervals [ (2, 3); (20, 22) ]));
    (* footprint wider than the cache: self-eviction path *)
    record (access_set c (Is.interval 100 108));
    (misses c, List.rev !h)
  in
  let word = trace Lru_ref.access_set Lru_ref.misses (Lru_ref.create ~m:4) in
  let intv = trace Cs.access_set Cs.misses (Cs.create ~m:4 ()) in
  Alcotest.(check (list int))
    "expected per-step misses"
    [ 4; 2; 0; 1; 2; 8 ]
    (snd intv);
  Alcotest.(check (pair int (list int))) "word = interval" word intv

(* randomized equivalence: the interval simulator must be bit-identical
   to the word-exact reference on arbitrary interleavings of single-word
   and multi-fragment footprint accesses.  At least 500 traces even at
   the default NDSIM_STRESS_ITERS (the acceptance floor); the nightly
   soak multiplies this by ~300. *)
let test_interval_equiv_random () =
  let n_traces = max 500 (167 * stress_iters) in
  let rng = Prng.create 20260806 in
  for t = 1 to n_traces do
    let m = 1 + Prng.int rng 64 in
    let cw = Lru_ref.create ~m in
    let ci = Cs.create ~m () in
    let steps = 1 + Prng.int rng 30 in
    for s = 1 to steps do
      if Prng.int rng 4 = 0 then begin
        let a = Prng.int rng 160 in
        let mw = Lru_ref.access cw a in
        let mi = access ci a in
        if mw <> mi then
          Alcotest.failf "trace %d step %d (m=%d): word %b / interval %b at %d"
            t s m mw mi a
      end
      else begin
        (* 1-3 fragments, lengths up to 48 (often > m: eviction chains) *)
        let n_frags = 1 + Prng.int rng 3 in
        let frags =
          List.init n_frags (fun _ ->
              let lo = Prng.int rng 128 in
              (lo, lo + 1 + Prng.int rng 48))
        in
        let fp = Is.of_intervals frags in
        let mw = Lru_ref.access_set cw fp in
        let mi = Cs.access_set ci fp in
        if mw <> mi then
          Alcotest.failf "trace %d step %d (m=%d): word %d / interval %d misses"
            t s m mw mi
      end
    done;
    if Lru_ref.misses cw <> Cs.misses ci then
      Alcotest.failf "trace %d (m=%d): totals diverge (w %d, i %d)" t m
        (Lru_ref.misses cw) (Cs.misses ci)
  done

(* every shipped workload family at its smallest sweep size: q1 must
   agree exactly with the reference's *)
let test_interval_equiv_workloads () =
  List.iter
    (fun name ->
      let fam = Nd_experiments.Workloads.find name in
      let n = List.hd fam.Nd_experiments.Workloads.sizes in
      let p = compile (Nd_experiments.Workloads.build ~n fam ~seed:7) in
      List.iter
        (fun m ->
          Alcotest.(check int)
            (Printf.sprintf "%s n=%d m=%d" name n m)
            (Lru_ref.q1 p ~m) (Cs.q1 p ~m))
        [ 16; 64; 256 ])
    (Nd_experiments.Workloads.names ())

(* long traces against the word-exact reference, at sizes from a single
   word to paper-scale caches, checking after every step both the
   step's misses and the interval simulator's own invariants
   ([Cs.validate]).  Fragments are mostly 1-4 words, so the m = 4096
   trace holds over 1,500 segments at once (its slot arrays grow to
   2,048, and vacated slots are reused) and its splay index reaches
   depth 70; one in 256 is up to max(16, m/4) words, which evicts many
   segments at once and, at m = 1 and 7, is wider than the cache
   (self-eviction). *)
let test_interval_long_traces () =
  let steps = 2_000 and n_traces = max 1 (stress_iters / 100) in
  List.iter
    (fun m ->
      for tr = 1 to n_traces do
        let rng = Prng.create ((1_000 * m) + tr) in
        let cw = Lru_ref.create ~m in
        let ci = Cs.create ~m () in
        let span = 4 * m in
        let frag () =
          let lo = Prng.int rng span in
          let len =
            if Prng.int rng 256 = 0 then 1 + Prng.int rng (max 16 (m / 4))
            else 1 + Prng.int rng 4
          in
          (lo, min span (lo + len))
        in
        for s = 1 to steps do
          let fp = Is.of_intervals (List.init (1 + Prng.int rng 8) (fun _ -> frag ())) in
          let mw = Lru_ref.access_set cw fp in
          let mi = Cs.access_set ci fp in
          if mw <> mi then
            Alcotest.failf "m=%d trace %d step %d: word %d / interval %d misses" m tr s
              mw mi;
          try Cs.validate ci
          with Failure msg -> Alcotest.failf "m=%d trace %d step %d: %s" m tr s msg
        done;
        Alcotest.(check int)
          (Printf.sprintf "m=%d trace %d totals" m tr)
          (Lru_ref.misses cw) (Cs.misses ci)
      done)
    [ 1; 7; 64; 512; 4096 ]

(* an access allocates O(1) words: after a warm-up that grows the slot
   arrays, access_set over fixed random footprints (1-8 fragments of
   1-16 words in [0, 4m)) stays within a constant number of words per
   call.  A persistent-map index allocates hundreds of words per call
   at these sizes. *)
let test_interval_alloc () =
  let rng = Prng.create 20261017 in
  List.iter
    (fun m ->
      let footprint _ =
        Is.of_intervals
          (List.init
             (1 + Prng.int rng 8)
             (fun _ ->
               let lo = Prng.int rng (4 * m) in
               (lo, lo + 1 + Prng.int rng 16)))
      in
      let warm = Array.init 4_096 footprint and fps = Array.init 20_000 footprint in
      let c = Cs.create ~m () in
      Array.iter (fun fp -> ignore (Cs.access_set c fp)) warm;
      let before = Gc.allocated_bytes () in
      Array.iter (fun fp -> ignore (Cs.access_set c fp)) fps;
      let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
      let per_call = words /. float_of_int (Array.length fps) in
      if per_call > 64. then
        Alcotest.failf "m=%d: %.1f words allocated per access_set; the bound is 64" m
          per_call)
    [ 64; 512; 4096 ]

(* ------------------- sharded replay differential ------------------- *)

module Mt = Nd_mem.Miss_table
module Shard = Nd_mem.Shard_sim
module Pmh = Nd_pmh.Pmh

(* random machine + trace derived from a Prng seed, so the QCheck
   property shrinks over (and replays from) a single integer *)
let build_case seed =
  let rng = Prng.create seed in
  let n_levels = 1 + Prng.int rng 3 in
  let root_fanout = 1 + Prng.int rng 3 in
  let rec levels i size acc =
    if i = n_levels then List.rev acc
    else
      let size = (size * (2 + Prng.int rng 6)) + Prng.int rng 3 in
      levels (i + 1) size
        ({ Pmh.size; fanout = 1 + Prng.int rng 3; miss_cost = 1 + Prng.int rng 16 }
        :: acc)
  in
  let machine = Pmh.create ~root_fanout (levels 0 (2 + Prng.int rng 8) []) in
  let n_procs = Pmh.n_procs machine in
  let trace = Shard.Trace.create () in
  let len = Prng.int rng 200 in
  for _ = 1 to len do
    let proc = Prng.int rng n_procs in
    let n_frags = 1 + Prng.int rng 3 in
    let frags =
      List.init n_frags (fun _ ->
          let lo = Prng.int rng 128 in
          (lo, lo + 1 + Prng.int rng 48))
    in
    Shard.Trace.push trace ~proc (Is.of_intervals frags)
  done;
  (machine, trace)

(* the inclusive bank the schedulers charge (SB's Lru accounting, ws,
   pdf and tree), fed the same stream in trace order: its table, level
   totals and miss cost (Σ misses × C_j), and the sum of what [charge]
   returned, must equal the word-exact replay's.  [Some what] names the
   first that differs. *)
let bank_differs ~machine trace reference =
  let bank = Nd_mem.Lru_bank.create machine in
  let charged = ref 0 in
  for k = 0 to Shard.Trace.length trace - 1 do
    charged :=
      !charged
      + Nd_mem.Lru_bank.charge bank ~proc:(Shard.Trace.proc trace k)
          (Shard.Trace.footprint trace k)
  done;
  let cost = Mt.total_cost reference ~miss_cost:(fun level -> Pmh.miss_cost machine ~level) in
  if not (Mt.equal reference (Nd_mem.Lru_bank.miss_table bank)) then Some "miss table"
  else if Nd_mem.Lru_bank.misses bank <> Mt.level_totals reference then Some "level misses"
  else if Nd_mem.Lru_bank.miss_cost bank <> cost then Some "miss cost"
  else if !charged <> cost then Some "sum of charges"
  else None

(* the bit-identity chain the sharded simulation rests on: sharded
   replay at any worker count = word-exact serial replay = the bank, on
   arbitrary machines and traces.  At least 500 cases even at the
   default NDSIM_STRESS_ITERS (the acceptance floor). *)
let replay_differential seed =
  let machine, trace = build_case seed in
  let reference = Lru_ref.replay_serial ~machine trace in
  List.iter
    (fun w ->
      if not (Mt.equal reference (Shard.replay ~workers:w ~machine trace)) then
        QCheck.Test.fail_reportf "seed %d: w=%d diverges from word-exact serial replay"
          seed w)
    [ 1; 2; 8 ];
  (match bank_differs ~machine trace reference with
  | Some what -> QCheck.Test.fail_reportf "seed %d: Lru_bank's %s diverges" seed what
  | None -> ());
  true

let test_replay_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~count:(max 500 (167 * stress_iters))
       ~name:"sharded = serial = word-exact (random machines)"
       QCheck.(int_bound 0x3FFFFFFF)
       replay_differential)

(* every shipped workload family at its smallest sweep size: leaves in
   program order, routed round-robin across the desktop machine's
   processors — the replayed tables must equal the word-exact serial
   replay's at every worker count, and so must the bank's *)
let test_replay_workload_families () =
  let machine = Pmh.desktop () in
  let n_procs = Pmh.n_procs machine in
  List.iter
    (fun name ->
      let fam = Nd_experiments.Workloads.find name in
      let n = List.hd fam.Nd_experiments.Workloads.sizes in
      let p = compile (Nd_experiments.Workloads.build ~n fam ~seed:7) in
      let lo, hi = Program.leaf_range p (Program.root p) in
      let trace = Shard.Trace.create () in
      for i = lo to hi - 1 do
        match Program.kind_of p (Program.leaf_node p i) with
        | Program.Leaf s ->
          Shard.Trace.push trace ~proc:(i mod n_procs) (Strand.footprint s)
        | Program.Seq | Program.Par | Program.Fire _ -> ()
      done;
      let reference = Lru_ref.replay_serial ~machine trace in
      List.iter
        (fun w ->
          if not (Mt.equal reference (Shard.replay ~workers:w ~machine trace)) then
            Alcotest.failf "%s (n=%d): w=%d diverges from word-exact serial replay" name
              n w)
        [ 1; 2; 8 ];
      match bank_differs ~machine trace reference with
      | Some what -> Alcotest.failf "%s (n=%d): Lru_bank's %s diverges" name n what
      | None -> ())
    (Nd_experiments.Workloads.names ())

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* the merge the acceptance criterion hinges on: a dropped or
   double-counted shard must raise, never mis-count *)
let test_merge_partition_checked () =
  let n_caches = [| 2; 1 |] in
  let mk_src cells =
    let s = Mt.create ~n_caches in
    List.iter (fun (l, c, n) -> Mt.add s ~level:l ~cache:c n) cells;
    s
  in
  let into = Mt.create ~n_caches in
  Mt.merge_exclusive ~into ~claims:[| (1, 0) |] (mk_src [ (1, 0, 5) ]);
  Mt.merge_exclusive ~into
    ~claims:[| (1, 1); (2, 0) |]
    (mk_src [ (1, 1, 7); (2, 0, 2) ]);
  Mt.assert_complete into;
  Alcotest.(check int) "cell (1,0)" 5 (Mt.get into ~level:1 ~cache:0);
  Alcotest.(check (array int)) "level totals" [| 12; 2 |] (Mt.level_totals into);
  Alcotest.(check int) "total cost" ((12 * 2) + (2 * 8))
    (Mt.total_cost into ~miss_cost:(fun level -> if level = 1 then 2 else 8));
  expect_invalid "double-counted shard" (fun () ->
      Mt.merge_exclusive ~into ~claims:[| (1, 0) |] (mk_src [ (1, 0, 1) ]));
  let into2 = Mt.create ~n_caches in
  expect_invalid "shard wrote outside its claim" (fun () ->
      Mt.merge_exclusive ~into:into2 ~claims:[| (1, 0) |] (mk_src [ (1, 1, 3) ]));
  let into3 = Mt.create ~n_caches in
  Mt.merge_exclusive ~into:into3 ~claims:[| (1, 0) |] (mk_src [ (1, 0, 1) ]);
  expect_invalid "dropped shard" (fun () -> Mt.assert_complete into3)

(* ------------------------------ ECC -------------------------------- *)

let test_ecc_alpha_zero () =
  (* at alpha zero the ECC collapses to Q-star for our parallel programs *)
  let w = Matmul.workload ~n:16 ~base:2 ~seed:3 () in
  let p = compile w in
  let r = Nd_mem.Ecc.analyze p ~m:64 ~alpha:0. in
  Alcotest.(check bool) "Q_hat close to Q*" true
    (r.Nd_mem.Ecc.q_hat <= 1.01 *. float_of_int r.Nd_mem.Ecc.q_star)

let test_ecc_monotone_alpha () =
  let w = Trs.workload ~n:32 ~base:2 ~seed:3 () in
  let p = compile w in
  let ratio alpha =
    let r = Nd_mem.Ecc.analyze p ~m:64 ~alpha in
    r.Nd_mem.Ecc.q_hat /. float_of_int r.Nd_mem.Ecc.q_star
  in
  (* the ECC/PCC ratio is non-decreasing in alpha *)
  let r1 = ratio 0.2 and r2 = ratio 0.6 and r3 = ratio 1.0 in
  Alcotest.(check bool) "monotone" true (r1 <= r2 +. 1e-9 && r2 <= r3 +. 1e-9)

let test_parallelizability_nd_ge_np () =
  (* the paper's central quantitative claim: alpha_max is larger in the
     ND model for TRS (and friends) *)
  let check name w m =
    let pnd = compile w in
    let pnp = Nd_algos.Workload.compile ~mode:Nd_algos.Workload.NP w in
    let a_nd = Nd_mem.Ecc.parallelizability pnd ~m ~c:2. in
    let a_np = Nd_mem.Ecc.parallelizability pnp ~m ~c:2. in
    if a_nd < a_np -. 1e-6 then
      Alcotest.failf "%s: alpha_nd %.3f < alpha_np %.3f" name a_nd a_np
  in
  check "trs" (Trs.workload ~n:32 ~base:2 ~seed:4 ()) 64;
  check "cholesky" (Cholesky.workload ~n:32 ~base:2 ~seed:4 ()) 64;
  check "lcs" (Lcs.workload ~n:128 ~base:2 ~seed:4 ()) 256

let test_parallelizability_strict_trs () =
  let w = Trs.workload ~n:32 ~base:2 ~seed:4 () in
  let pnd = compile w in
  let pnp = Nd_algos.Workload.compile ~mode:Nd_algos.Workload.NP w in
  let a_nd = Nd_mem.Ecc.parallelizability pnd ~m:64 ~c:2. in
  let a_np = Nd_mem.Ecc.parallelizability pnp ~m:64 ~c:2. in
  Alcotest.(check bool)
    (Printf.sprintf "strict: %.3f > %.3f" a_nd a_np)
    true (a_nd > a_np)

let () =
  Alcotest.run "nd_mem"
    [
      ( "pcc",
        [
          Alcotest.test_case "hand example" `Quick test_qstar_hand;
          Alcotest.test_case "mm shape (Claim 1)" `Quick test_qstar_shape_mm;
          Alcotest.test_case "lcs shape (Claim 1)" `Quick test_qstar_shape_lcs;
          Alcotest.test_case "NP = ND" `Quick test_qstar_np_invariant;
        ] );
      ( "cache_sim",
        [
          Alcotest.test_case "LRU basics" `Quick test_lru_basic;
          Alcotest.test_case "footprint access" `Quick test_lru_set;
          Alcotest.test_case "Q1 bounds" `Quick test_q1_bounds;
        ] );
      ( "cache_sim.interval",
        [
          Alcotest.test_case "split/evict transitions" `Quick
            test_interval_split_evict;
          Alcotest.test_case "randomized equivalence" `Quick
            test_interval_equiv_random;
          Alcotest.test_case "workload q1 equivalence" `Quick
            test_interval_equiv_workloads;
          Alcotest.test_case "long traces: word-exact, invariants hold" `Quick
            test_interval_long_traces;
          Alcotest.test_case "allocation per access" `Quick test_interval_alloc;
        ] );
      ( "shard_sim",
        [
          test_replay_differential;
          Alcotest.test_case "workload families bit-identical" `Quick
            test_replay_workload_families;
          Alcotest.test_case "merge is partition-checked" `Quick
            test_merge_partition_checked;
        ] );
      ( "ecc",
        [
          Alcotest.test_case "alpha=0 collapses" `Quick test_ecc_alpha_zero;
          Alcotest.test_case "monotone in alpha" `Quick test_ecc_monotone_alpha;
          Alcotest.test_case "alpha ND >= NP" `Quick test_parallelizability_nd_ge_np;
          Alcotest.test_case "alpha ND > NP for TRS" `Quick
            test_parallelizability_strict_trs;
        ] );
    ]
