(* Static-analysis tests (Nd_analyze): the ESP-bags detector must agree
   with the exact reachability checker on every generated spec and every
   packaged workload, must keep working past the exact checker's vertex
   cap, and the fire-rule linter must flag each defect class in its
   catalogue — and stay quiet on the shipped (corrected) rule sets.

   NDSIM_STRESS_ITERS scales the generated corpus (default 3; nightly
   CI soaks with 1000).  The corpus floor is 500 cases even at the
   default, per the acceptance bar for the ESP == exact property. *)

module Gen = Nd_check.Gen
module Esp = Nd_analyze.Esp_bags
module Lint = Nd_analyze.Lint
module Footprint = Nd_analyze.Footprint
module Race = Nd_dag.Race
module Json = Nd_util.Json
open Nd

let stress_iters =
  match Sys.getenv_opt "NDSIM_STRESS_ITERS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 3)
  | None -> 3

(* ------------------- ESP == exact: generated corpus ------------------ *)

let test_esp_matches_exact_corpus () =
  (* seeds disjoint from test_conform's corpus (1_000..) and the CI fuzz
     job's base seed 42 *)
  let count = min 20_000 (max 500 (50 * stress_iters)) in
  for seed = 5_000 to 5_000 + count - 1 do
    let spec = Gen.generate ~seed () in
    let inst = Gen.build spec in
    match Program.compile ~registry:inst.Gen.registry inst.Gen.tree with
    | exception Invalid_argument _ -> ()
    | p ->
      let exact = Race.race_free (Program.dag p) in
      let esp = Esp.race_free p in
      if esp <> exact then
        Alcotest.failf "seed %d: ESP race_free=%b, exact race_free=%b@.%a"
          seed esp exact Gen.pp spec
  done

(* ------------------- ESP == exact: workload corpus ------------------- *)

let workload_cases =
  [
    ("mm", 4, 2); ("mm8", 4, 2); ("trs", 4, 2); ("cholesky", 4, 2);
    ("lu", 4, 2); ("apsp", 4, 2); ("fw1d", 4, 2); ("lcs", 8, 2);
    ("mm", 8, 2); ("trs", 8, 2); ("cholesky", 8, 2); ("lu", 8, 2);
    ("stencil", 8, 4); ("gotoh", 8, 2); ("fw1d", 16, 2); ("lcs", 16, 2);
  ]

let literal_cases =
  [
    (fun () -> Nd_algos.Matmul.workload ~variant:Nd_algos.Matmul.Literal ~n:8 ~base:2 ~seed:7 ());
    (fun () -> Nd_algos.Trs.workload ~variant:Nd_algos.Trs.Literal ~n:8 ~base:2 ~seed:7 ());
    (fun () -> Nd_algos.Lcs.workload ~variant:`Literal ~n:16 ~base:2 ~seed:7 ());
    (fun () -> Nd_algos.Fw1d.workload ~variant:`Literal ~n:16 ~base:2 ~seed:7 ());
  ]

let check_workload_agreement (w : Nd_algos.Workload.t) =
  List.iter
    (fun mode ->
      let p = Nd_algos.Workload.compile ~mode w in
      let exact = Race.race_free (Program.dag p) in
      let esp = Esp.race_free p in
      if esp <> exact then
        Alcotest.failf "%s n=%d %s: ESP race_free=%b, exact race_free=%b"
          w.Nd_algos.Workload.name w.Nd_algos.Workload.n
          (Nd_algos.Workload.mode_name mode)
          esp exact)
    [ Nd_algos.Workload.ND; Nd_algos.Workload.NP ]

let test_esp_matches_exact_workloads () =
  List.iter
    (fun (name, n, base) ->
      let fam = Nd_experiments.Workloads.find name in
      check_workload_agreement
        (Nd_experiments.Workloads.build ~n ~base fam ~seed:7))
    workload_cases;
  List.iter (fun mk -> check_workload_agreement (mk ())) literal_cases

(* ----------------- ESP past the exact checker's cap ------------------ *)

let test_esp_beyond_exact_limit () =
  (* FW-2D (apsp) at n=64 compiles to ~98k vertices — past
     Race.max_vertices, so the exact checker must refuse and the ESP
     pass must still answer; it also exercises both query paths (S-bag
     hits and ~757k fire edges).  BENCH_3 covers the scaling sweep. *)
  let fam = Nd_experiments.Workloads.find "apsp" in
  let w = Nd_experiments.Workloads.build ~n:64 ~base:2 fam ~seed:7 in
  let p = Nd_algos.Workload.compile w in
  let n = Nd_dag.Dag.n_vertices (Program.dag p) in
  if n <= Race.max_vertices then
    Alcotest.failf "apsp n=64 has only %d vertices (cap %d): not past the cap"
      n Race.max_vertices;
  (match Race.find_races (Program.dag p) with
  | exception Race.Limit_exceeded { vertices; limit } ->
    Alcotest.(check int) "reported vertex count" n vertices;
    Alcotest.(check int) "reported limit" Race.max_vertices limit
  | _ -> Alcotest.fail "exact checker did not raise Limit_exceeded");
  let v = Esp.analyze p in
  Alcotest.(check (list reject)) "ESP: race free" [] v.Esp.races;
  let s = v.Esp.stats in
  if s.Esp.n_queries = 0 || s.Esp.n_accesses = 0 then
    Alcotest.fail "ESP stats empty on a 100k-vertex program";
  if s.Esp.sp_hits > s.Esp.n_queries then
    Alcotest.fail "sp_hits exceeds n_queries"

(* --------------------- lint: literal MM rejected --------------------- *)

let test_lint_rejects_literal_mm () =
  let w =
    Nd_algos.Matmul.workload ~variant:Nd_algos.Matmul.Literal ~n:8 ~base:2
      ~seed:7 ()
  in
  let findings =
    Lint.lint_all ~registry:w.Nd_algos.Workload.registry
      w.Nd_algos.Workload.tree
  in
  Alcotest.(check bool) "has errors" true (Lint.has_errors findings);
  let races = List.filter (fun f -> f.Lint.id = "ND009") findings in
  if races = [] then Alcotest.fail "no ND009 race finding on literal MM";
  List.iter
    (fun f ->
      Alcotest.(check string) "lifted to the MM fire" "fire \"MM_literal\""
        f.Lint.subject)
    races;
  (* the ESP diagnosis must carry the same LCA + pedigrees the exact
     Rule_check diagnosis reports *)
  let p = Nd_algos.Workload.compile w in
  (* an ESP verdict already run lifts to the same findings *)
  Alcotest.(check string) "lint with the verdict of a race request"
    (Json.to_string (Lint.to_json findings))
    (Json.to_string (Lint.to_json (Lint.lint_compiled ~verdict:(Esp.analyze p) p)));
  let key (f : Rule_check.finding) =
    ( f.Rule_check.lca,
      Pedigree.to_string f.Rule_check.src_pedigree,
      Pedigree.to_string f.Rule_check.dst_pedigree )
  in
  let exact =
    List.map key (Rule_check.diagnose ~limit:1_000 p)
  in
  List.iter
    (fun f ->
      if not (List.mem (key f) exact) then
        Alcotest.failf "ESP diagnosis %s -> %s not among the exact findings"
          (Pedigree.to_string f.Rule_check.src_pedigree)
          (Pedigree.to_string f.Rule_check.dst_pedigree))
    (Esp.diagnose ~limit:1_000 p)

(* The FG pair from test_conform: dropping +<2> ~> -<1> leaves exactly
   (B, C) unordered; the ESP diagnosis must name the same fire node and
   pedigrees as the exact one. *)
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

let test_esp_diagnoses_dropped_rule () =
  let p = fg_program [ Fire_rule.rule [ 1 ] Fire_rule.Full [ 2 ] ] in
  match Esp.diagnose p with
  | [ f ] ->
    (match f.Rule_check.lca_kind with
    | Program.Fire "FG" -> ()
    | _ -> Alcotest.fail "LCA is not the FG fire node");
    Alcotest.(check string) "src pedigree (B)" "<1.2>"
      (Pedigree.to_string f.Rule_check.src_pedigree);
    Alcotest.(check string) "dst pedigree (C)" "<2.1>"
      (Pedigree.to_string f.Rule_check.dst_pedigree)
  | other -> Alcotest.failf "expected exactly 1 finding, got %d" (List.length other)

(* -------------------- lint: registry defect classes ------------------ *)

let strand label =
  Spawn_tree.leaf
    (Strand.make ~label ~work:1 ~reads:Nd_util.Interval_set.empty
       ~writes:Nd_util.Interval_set.empty ())

let find_ids id findings = List.filter (fun f -> f.Lint.id = id) findings

let test_lint_dangling_and_dead () =
  (* dangling: a rule's via names an undefined fire type *)
  let dangling =
    Fire_rule.define Fire_rule.empty_registry "H"
      [ Fire_rule.rule [ 1 ] (Fire_rule.Named "NOPE") [ 1 ] ]
  in
  let fs = Lint.lint_registry dangling in
  (match find_ids "ND001" fs with
  | [ f ] ->
    Alcotest.(check string) "severity" "error" (Lint.severity_name f.Lint.severity);
    Alcotest.(check string) "subject" "H" f.Lint.subject
  | other -> Alcotest.failf "expected 1 ND001, got %d" (List.length other));
  (* dangling fire type used directly by the tree *)
  let tree =
    Spawn_tree.fire ~rule:"GHOST"
      (Spawn_tree.seq [ strand "a"; strand "b" ])
      (Spawn_tree.seq [ strand "c"; strand "d" ])
  in
  let fs = Lint.lint_tree Fire_rule.empty_registry tree in
  if find_ids "ND001" fs = [] then
    Alcotest.fail "tree with undefined fire type not flagged";
  (* dead: the pedigrees address children that never exist, at every
     use site (both sides are 2-child Seqs; step 5 is out of range) *)
  let dead =
    Fire_rule.define Fire_rule.empty_registry "H"
      [
        Fire_rule.rule [ 1 ] Fire_rule.Full [ 1 ];
        Fire_rule.rule [ 5 ] Fire_rule.Full [ 5 ];
      ]
  in
  let tree =
    Spawn_tree.fire ~rule:"H"
      (Spawn_tree.seq [ strand "a"; strand "b" ])
      (Spawn_tree.seq [ strand "c"; strand "d" ])
  in
  let fs = Lint.lint_all ~registry:dead tree in
  (match find_ids "ND002" fs with
  | [ f ] ->
    Alcotest.(check string) "severity" "warning"
      (Lint.severity_name f.Lint.severity);
    Alcotest.(check string) "subject" "H" f.Lint.subject;
    if not (Lint.has_errors fs = false) then
      Alcotest.fail "dead rule alone must not be an error"
  | other -> Alcotest.failf "expected 1 ND002, got %d" (List.length other))

let test_lint_duplicate_shadow_cycle () =
  let r = Fire_rule.rule in
  (* duplicate + shadowed *)
  let reg =
    Fire_rule.define Fire_rule.empty_registry "A"
      [
        r [ 1 ] Fire_rule.Full [ 1 ];
        r [ 1 ] Fire_rule.Full [ 1 ];
        (* duplicate: ND003 *)
        r [ 1 ] (Fire_rule.Named "A") [ 1 ];
        (* shadowed by the Full above: ND004 *)
      ]
  in
  let fs = Lint.lint_registry reg in
  if find_ids "ND003" fs = [] then Alcotest.fail "duplicate not flagged";
  if find_ids "ND004" fs = [] then Alcotest.fail "shadowed rule not flagged";
  (* no-progress cycle: A -> B -> A with empty pedigrees on both sides *)
  let reg =
    Fire_rule.define
      (Fire_rule.define Fire_rule.empty_registry "A"
         [ r [] (Fire_rule.Named "B") [] ])
      "B"
      [ r [] (Fire_rule.Named "A") [] ]
  in
  let fs = Lint.lint_registry reg in
  let cyc = find_ids "ND005" fs in
  Alcotest.(check int) "both cycle members flagged" 2 (List.length cyc);
  Alcotest.(check bool) "cycle is an error" true (Lint.has_errors fs);
  (* structural descent breaks the cycle: same shape, nonempty pedigree *)
  let reg =
    Fire_rule.define
      (Fire_rule.define Fire_rule.empty_registry "A"
         [ r [ 1 ] (Fire_rule.Named "B") [] ])
      "B"
      [ r [] (Fire_rule.Named "A") [] ]
  in
  Alcotest.(check int) "descending cycle is fine" 0
    (List.length (find_ids "ND005" (Lint.lint_registry reg)))

let test_lint_footprint_overlap () =
  let is = Nd_util.Interval_set.interval in
  let w label iv =
    Spawn_tree.leaf
      (Strand.make ~label ~work:1 ~reads:Nd_util.Interval_set.empty
         ~writes:iv ())
  in
  let tree = Spawn_tree.par [ w "x" (is 0 2); w "y" (is 1 3) ] in
  let fs = Lint.lint_tree Fire_rule.empty_registry tree in
  (match find_ids "ND008" fs with
  | [ f ] -> Alcotest.(check string) "severity" "error" (Lint.severity_name f.Lint.severity)
  | other -> Alcotest.failf "expected 1 ND008, got %d" (List.length other));
  (* the same overlap under Seq is ordered: no finding *)
  let tree = Spawn_tree.seq [ w "x" (is 0 2); w "y" (is 1 3) ] in
  Alcotest.(check int) "seq overlap is fine" 0
    (List.length (Lint.lint_tree Fire_rule.empty_registry tree));
  (* direct Footprint API: conflict carries path and overlap *)
  let tree =
    Spawn_tree.seq
      [ strand "pre"; Spawn_tree.par [ w "x" (is 0 2); w "y" (is 1 3) ] ]
  in
  match Footprint.check tree with
  | [ c ] ->
    Alcotest.(check string) "path" "<2>" (Pedigree.to_string c.Footprint.path);
    Alcotest.(check bool) "write-write" true c.Footprint.write_write;
    Alcotest.(check bool) "overlap is [1,2)" true
      (Nd_util.Interval_set.intervals c.Footprint.overlap = [ (1, 2) ])
  | other -> Alcotest.failf "expected 1 conflict, got %d" (List.length other)

(* ----------------- lint: shipped rule sets are clean ----------------- *)

let test_lint_shipped_sets_clean () =
  List.iter
    (fun fam ->
      let n = List.hd fam.Nd_experiments.Workloads.sizes in
      let w = Nd_experiments.Workloads.build ~n fam ~seed:7 in
      let fs =
        Lint.lint_all ~registry:w.Nd_algos.Workload.registry
          w.Nd_algos.Workload.tree
      in
      if Lint.has_errors fs then
        Alcotest.failf "%s n=%d: %s" fam.Nd_experiments.Workloads.name n
          (String.concat "; "
             (List.map
                (fun f -> Format.asprintf "%a" Lint.pp_finding f)
                fs)))
    Nd_experiments.Workloads.all

(* -------------------------- JSON round-trip -------------------------- *)

let test_lint_json_roundtrip () =
  let w =
    Nd_algos.Matmul.workload ~variant:Nd_algos.Matmul.Literal ~n:8 ~base:2
      ~seed:7 ()
  in
  let findings =
    Lint.lint_all ~registry:w.Nd_algos.Workload.registry
      w.Nd_algos.Workload.tree
  in
  if findings = [] then Alcotest.fail "expected findings to round-trip";
  let back =
    Lint.of_json (Json.parse (Json.to_string (Lint.to_json findings)))
  in
  Alcotest.(check bool) "round-trip" true (back = findings)

let test_lint_json_extended_catalogue () =
  (* the structural checks ND010-ND013 must survive the codec too *)
  let mk id = { Lint.id; severity = Lint.Warning; subject = "t"; message = id } in
  let findings = List.map mk [ "ND010"; "ND011"; "ND012"; "ND013" ] in
  let back =
    Lint.of_json (Json.parse (Json.to_string (Lint.to_json findings)))
  in
  Alcotest.(check bool) "extended round-trip" true (back = findings);
  (* an id outside the catalogue is a parse error, not a silent accept *)
  let bogus = Json.to_string (Lint.to_json [ mk "ND999" ]) in
  match Lint.of_json (Json.parse bogus) with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "unknown id ND999 must be rejected"

(* ------------------ lint: structural cost catalogue ------------------ *)

module Cost = Nd_analyze.Cost

let cost_of ~registry tree = Cost.of_program (Program.compile ~registry tree)

let test_lint_cost_catalogue () =
  (* ND013: a fire over two bare leaves bottoms out as an end-to-begin
     full edge, so the halves serialize and span = work *)
  let reg =
    Fire_rule.define Fire_rule.empty_registry "X"
      [ Fire_rule.rule [ 1 ] Fire_rule.Full [ 1 ] ]
  in
  let serial = Spawn_tree.fire ~rule:"X" (strand "f") (strand "g") in
  let cost = cost_of ~registry:reg serial in
  (match find_ids "ND013" (Lint.lint_cost ~has_fires:true cost) with
  | [ _ ] -> ()
  | o -> Alcotest.failf "expected 1 ND013, got %d" (List.length o));
  (* ND012: a two-leaf par has parallelism 2, far below 16 processors *)
  let par = Spawn_tree.par [ strand "a"; strand "b" ] in
  let pcost = cost_of ~registry:Fire_rule.empty_registry par in
  (match find_ids "ND012" (Lint.lint_cost ~procs:16 ~has_fires:false pcost) with
  | [ _ ] -> ()
  | o -> Alcotest.failf "expected 1 ND012, got %d" (List.length o));
  (* ND013 needs fires: a fire-free serial chain is not flagged *)
  (match find_ids "ND013" (Lint.lint_cost ~has_fires:false pcost) with
  | [] -> ()
  | o -> Alcotest.failf "fire-free tree raised %d ND013" (List.length o));
  (* ND011: a working set above the outermost cache of a small PMH *)
  let iv = Nd_util.Interval_set.interval 0 100 in
  let big =
    Spawn_tree.leaf (Strand.make ~label:"big" ~work:1 ~reads:iv ~writes:iv ())
  in
  let machine =
    Nd_pmh.Pmh.create ~root_fanout:1
      [
        { Nd_pmh.Pmh.size = 16; fanout = 1; miss_cost = 2 };
        { Nd_pmh.Pmh.size = 64; fanout = 4; miss_cost = 8 };
      ]
  in
  let bcost = cost_of ~registry:Fire_rule.empty_registry big in
  (match find_ids "ND011" (Lint.lint_cost ~machine ~has_fires:false bcost) with
  | [ _ ] -> ()
  | o -> Alcotest.failf "expected 1 ND011, got %d" (List.length o));
  (* ...and none when the cache holds the working set *)
  match
    find_ids "ND012" (Lint.lint_cost ~procs:1 ~has_fires:false pcost)
  with
  | [] -> ()
  | o -> Alcotest.failf "parallelism 2 >= 1 proc raised %d ND012" (List.length o)

let test_lint_span_sweep_catalogue () =
  (* flat: a root-to-root full edge serializes the construct, so ND span
     = NP span at every size and the sweep must flag ND010 *)
  let reg =
    Fire_rule.define Fire_rule.empty_registry "X"
      [ Fire_rule.rule [] Fire_rule.Full [] ]
  in
  let build n =
    let half k =
      Spawn_tree.seq (List.init (max 1 k) (fun i -> strand (string_of_int i)))
    in
    (reg, Spawn_tree.fire ~rule:"X" (half (n / 2)) (half (n / 2)))
  in
  (match find_ids "ND010" (Lint.lint_span_sweep ~subject:"flat" ~build [ 4; 8; 16 ]) with
  | [ _ ] -> ()
  | o -> Alcotest.failf "expected 1 ND010, got %d" (List.length o));
  (* trs recovers span asymptotically, so its sweep stays quiet *)
  let fam = Nd_experiments.Workloads.find "trs" in
  let build n =
    let w = Nd_experiments.Workloads.build ~n fam ~seed:7 in
    (w.Nd_algos.Workload.registry, w.Nd_algos.Workload.tree)
  in
  (match find_ids "ND010" (Lint.lint_span_sweep ~subject:"trs" ~build [ 8; 16; 32 ]) with
  | [] -> ()
  | o -> Alcotest.failf "trs sweep raised %d ND010" (List.length o));
  (* a fire-free sweep yields nothing (no fires, nothing to judge) *)
  let build_nofire n =
    (Fire_rule.empty_registry,
     Spawn_tree.par (List.init (max 1 n) (fun i -> strand (string_of_int i))))
  in
  match Lint.lint_span_sweep ~subject:"nofire" ~build:build_nofire [ 4; 8 ] with
  | [] -> ()
  | o -> Alcotest.failf "fire-free sweep raised %d findings" (List.length o)

let test_lint_min_severity_filter () =
  let mk id severity = { Lint.id; severity; subject = "t"; message = id } in
  let fs = [ mk "ND008" Lint.Error; mk "ND012" Lint.Warning ] in
  Alcotest.(check int) "warning keeps all" 2
    (List.length (Lint.filter_min_severity Lint.Warning fs));
  match Lint.filter_min_severity Lint.Error fs with
  | [ f ] -> Alcotest.(check string) "error only" "ND008" f.Lint.id
  | o -> Alcotest.failf "expected 1 finding, got %d" (List.length o)

(* --------------- Cost == exact Analysis: generated corpus ------------ *)

module Pcc = Nd_mem.Pcc

let q_star_ms = [ 1; 2; 8; 64 ]

(* [of_program]'s work, root size and Q* against the exact path's and
   its leaves against the bare tree's, and the compile-free pass's span
   and fire pairs against the DAG's and the program's *)
let check_cost_matches_exact ~what p =
  let cost = Cost.of_program p in
  let tree = Cost.tree_span ~registry:(Program.registry p) (Program.tree p) in
  let exact = Analysis.analyze p in
  let r = Cost.report cost in
  if r.Cost.work <> exact.Analysis.work then
    Alcotest.failf "%s: Cost work %d <> exact %d" what r.Cost.work
      exact.Analysis.work;
  if tree.Cost.span <> exact.Analysis.span then
    Alcotest.failf "%s: tree span %d <> exact %d" what tree.Cost.span
      exact.Analysis.span;
  let leaves = Spawn_tree.n_leaves (Program.tree p) in
  if r.Cost.n_leaves <> leaves then
    Alcotest.failf "%s: Cost n_leaves %d <> the tree's %d" what r.Cost.n_leaves
      leaves;
  let root_size = Program.size p (Program.root p) in
  if r.Cost.root_size <> root_size then
    Alcotest.failf "%s: Cost root_size %d <> exact %d" what r.Cost.root_size
      root_size;
  if tree.Cost.n_fire_edges <> Program.n_fire_edges p then
    Alcotest.failf "%s: tree fire edges %d <> exact %d" what
      tree.Cost.n_fire_edges
      (Program.n_fire_edges p);
  List.iter
    (fun m ->
      let q = Cost.q_star cost ~m in
      let qe = Pcc.q_star p ~m in
      if q <> qe then
        Alcotest.failf "%s: Cost Q*(m=%d) %d <> exact %d" what m q qe)
    q_star_ms

let test_cost_matches_exact_corpus () =
  (* seeds disjoint from the other corpora (test_conform 1_000.., ESP
     5_000..25_000, CI fuzz base 42) *)
  let count = min 20_000 (max 500 (50 * stress_iters)) in
  for seed = 40_000 to 40_000 + count - 1 do
    let spec = Gen.generate ~seed () in
    let inst = Gen.build spec in
    match Program.compile ~registry:inst.Gen.registry inst.Gen.tree with
    | exception Invalid_argument _ ->
      (* the compile-free pass must refuse the same programs *)
      (match Cost.tree_span ~registry:inst.Gen.registry inst.Gen.tree with
      | exception Invalid_argument _ -> ()
      | _ ->
        Alcotest.failf "seed %d: compile refused but Cost.tree_span passed"
          seed)
    | p -> check_cost_matches_exact ~what:(Printf.sprintf "seed %d" seed) p
  done

let test_cost_matches_exact_workloads () =
  (* all ten shipped families at small n, both models *)
  List.iter
    (fun fam ->
      let n = List.hd fam.Nd_experiments.Workloads.sizes in
      let w = Nd_experiments.Workloads.build ~n fam ~seed:7 in
      List.iter
        (fun mode ->
          let p = Nd_algos.Workload.compile ~mode w in
          check_cost_matches_exact
            ~what:
              (Printf.sprintf "%s n=%d %s"
                 fam.Nd_experiments.Workloads.name n
                 (Nd_algos.Workload.mode_name mode))
            p)
        [ Nd_algos.Workload.ND; Nd_algos.Workload.NP ])
    Nd_experiments.Workloads.all;
  List.iter
    (fun (name, n, base) ->
      let fam = Nd_experiments.Workloads.find name in
      let w = Nd_experiments.Workloads.build ~n ~base fam ~seed:7 in
      let p = Nd_algos.Workload.compile w in
      check_cost_matches_exact
        ~what:(Printf.sprintf "%s n=%d base=%d" name n base)
        p)
    workload_cases

(* a caller's own structural pass gives the certificate a fresh one
   gives, on every family; the previous family's cost, whose node count
   or root size differs, is refused instead of certifying against
   another program's bounds *)
let test_certify_with_cost () =
  let machine = Nd_serve.Server.standard_machine ~top:1 in
  let prev = ref None in
  List.iter
    (fun fam ->
      let n = List.hd fam.Nd_experiments.Workloads.sizes in
      let what = Printf.sprintf "%s n=%d" fam.Nd_experiments.Workloads.name n in
      let w = Nd_experiments.Workloads.build ~n fam ~seed:7 in
      let p = Nd_algos.Workload.compile w in
      let cost = Cost.of_program p in
      if Cost.certify_theorem1 ~cost p machine <> Cost.certify_theorem1 p machine
      then Alcotest.failf "%s: certify_theorem1 ~cost differs" what;
      (match !prev with
      | None -> ()
      | Some (other, other_cost) -> (
        match Cost.certify_theorem1 ~cost:other_cost p machine with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "%s: certified with %s's cost" what other));
      prev := Some (what, cost))
    Nd_experiments.Workloads.all

(* of_program reads the compiled program instead of walking its tree
   again: on mm n=32 b=2, one call after a warm-up allocates at most 40
   words a spawn-tree node outside the minor heap (promoted plus
   direct), where re-deriving the DAG from the tree, with a second DRS
   walk and an edge list, allocates over 500 *)
let test_cost_alloc () =
  let w =
    Nd_experiments.Workloads.build ~n:32 ~base:2
      (Nd_experiments.Workloads.find "mm") ~seed:1
  in
  let p = Nd_algos.Workload.compile w in
  ignore (Cost.of_program p);
  Gc.minor ();
  let _, _, major0 = Gc.counters () in
  let cost = Cost.of_program p in
  let _, _, major1 = Gc.counters () in
  let per_node = (major1 -. major0) /. float_of_int (Program.n_nodes p) in
  if per_node > 40. then
    Alcotest.failf
      "of_program allocated %.0f words outside the minor heap, %.1f a node (%d nodes); \
       the bound is 40"
      (major1 -. major0) per_node (Program.n_nodes p);
  ignore (Sys.opaque_identity cost)

(* -------------- Cost at paper scale: pinned golden table -------------- *)

let test_cost_paper_scale_golden () =
  (* mm and apsp at n=512 — the apsp DAG (~98k vertices) is past the
     exact Race cap, which is the point of the structural pass.  The DAG
     still compiles (only the quadratic reachability refuses), so the
     differential identity holds even here; the pinned numbers guard
     against silent drift of either path. *)
  let golden =
    (* (algo, n, base, work, span, root_size, q_star at m=1365) *)
    [
      ("mm", 512, 16, 134_217_728, 131_072, 786_432, 20_987_903);
      ("apsp", 512, 16, 134_217_728, 2_752_512, 262_144, 20_430_739);
    ]
  in
  List.iter
    (fun (name, n, base, work, span, root_size, q1365) ->
      let fam = Nd_experiments.Workloads.find name in
      let w = Nd_experiments.Workloads.build ~n ~base fam ~seed:7 in
      let p = Nd_algos.Workload.compile w in
      if Nd_dag.Dag.n_vertices (Program.dag p) <= Race.default_max_vertices
      then
        Alcotest.failf "%s n=%d is not past the exact race cap" name n;
      check_cost_matches_exact ~what:(Printf.sprintf "%s n=%d" name n) p;
      let cost = Cost.of_program p in
      let r = Cost.report cost in
      Printf.printf "GOLDEN %s n=%d base=%d: work=%d span=%d root=%d q1365=%d vertices=%d shapes=%d\n%!"
        name n base r.Cost.work r.Cost.span r.Cost.root_size
        (Cost.q_star cost ~m:1365)
        (Nd_dag.Dag.n_vertices (Program.dag p)) r.Cost.n_shapes;
      if work >= 0 then begin
        Alcotest.(check int) (name ^ " work") work r.Cost.work;
        Alcotest.(check int) (name ^ " span") span r.Cost.span;
        Alcotest.(check int) (name ^ " root size") root_size r.Cost.root_size;
        Alcotest.(check int) (name ^ " Q*(1365)") q1365
          (Cost.q_star cost ~m:1365)
      end)
    golden

(* -------------------- race cap: per-call override -------------------- *)

let test_race_max_vertices_override () =
  let w =
    Nd_experiments.Workloads.build ~n:8 ~base:2
      (Nd_experiments.Workloads.find "mm") ~seed:7
  in
  let p = Nd_algos.Workload.compile w in
  let dag = Program.dag p in
  let n = Nd_dag.Dag.n_vertices dag in
  if n <= 4 then Alcotest.fail "mm n=8 unexpectedly tiny";
  (match Race.find_races ~max_vertices:4 dag with
  | exception Race.Limit_exceeded { vertices; limit } ->
    Alcotest.(check int) "vertices" n vertices;
    Alcotest.(check int) "override cap" 4 limit
  | _ -> Alcotest.fail "lowered cap did not trip");
  (* a raised per-call cap admits the program *)
  Alcotest.(check bool) "race free under raised cap" true
    (Race.race_free ~max_vertices:(n + 1) dag)

(* ----------------------------- registry ------------------------------ *)

let () =
  Alcotest.run "nd_analyze"
    [
      ( "esp-bags",
        [
          Alcotest.test_case "matches exact: generated corpus" `Slow
            test_esp_matches_exact_corpus;
          Alcotest.test_case "matches exact: workloads" `Quick
            test_esp_matches_exact_workloads;
          Alcotest.test_case "works past the exact cap" `Slow
            test_esp_beyond_exact_limit;
          Alcotest.test_case "diagnoses the dropped FG rule" `Quick
            test_esp_diagnoses_dropped_rule;
        ] );
      ( "lint",
        [
          Alcotest.test_case "rejects literal MM" `Quick
            test_lint_rejects_literal_mm;
          Alcotest.test_case "dangling + dead rules" `Quick
            test_lint_dangling_and_dead;
          Alcotest.test_case "duplicate, shadow, cycle" `Quick
            test_lint_duplicate_shadow_cycle;
          Alcotest.test_case "footprint overlap" `Quick
            test_lint_footprint_overlap;
          Alcotest.test_case "shipped rule sets clean" `Quick
            test_lint_shipped_sets_clean;
          Alcotest.test_case "JSON round-trip" `Quick
            test_lint_json_roundtrip;
          Alcotest.test_case "JSON extended catalogue + rejection" `Quick
            test_lint_json_extended_catalogue;
          Alcotest.test_case "structural cost catalogue" `Quick
            test_lint_cost_catalogue;
          Alcotest.test_case "span sweep (ND010)" `Quick
            test_lint_span_sweep_catalogue;
          Alcotest.test_case "min-severity filter" `Quick
            test_lint_min_severity_filter;
        ] );
      ( "cost",
        [
          Alcotest.test_case "matches exact: generated corpus" `Slow
            test_cost_matches_exact_corpus;
          Alcotest.test_case "matches exact: workloads" `Quick
            test_cost_matches_exact_workloads;
          Alcotest.test_case "certify with a given cost" `Quick
            test_certify_with_cost;
          Alcotest.test_case "of_program allocation" `Quick test_cost_alloc;
          Alcotest.test_case "paper-scale golden" `Slow
            test_cost_paper_scale_golden;
        ] );
      ( "race-cap",
        [
          Alcotest.test_case "per-call max_vertices override" `Quick
            test_race_max_vertices_override;
        ] );
    ]
