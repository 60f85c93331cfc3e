(* Static-analysis tests (Nd_analyze): the ESP-bags detector must agree
   with the exhaustive search over the DAG's reachability closure
   (test/race_ref.ml) on every generated spec and every packaged
   workload, must answer programs of any size, and the fire-rule linter
   must flag each defect class in its catalogue — and stay quiet on the
   shipped (corrected) rule sets.

   NDSIM_STRESS_ITERS scales the generated corpus (default 3; nightly
   CI soaks with 1000).  The corpus floor is 500 cases even at the
   default, per the acceptance bar for the ESP == exact property. *)

module Gen = Nd_check.Gen
module Esp = Nd_analyze.Esp_bags
module Lint = Nd_analyze.Lint
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
      let exact = Race_ref.race_free (Program.dag p) in
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
      let exact = Race_ref.race_free (Program.dag p) in
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

(* ------------------- every reported race is real -------------------- *)

(* The corpus cases compare verdicts only; here each pair ESP reports on
   the racy literal rule sets must be unordered in the reachability
   closure and carry the footprint conflict the record claims. *)
let test_esp_races_are_real () =
  let module Is = Nd_util.Interval_set in
  let module Race = Nd_dag.Race in
  List.iter
    (fun mk ->
      let w = mk () in
      let p = Nd_algos.Workload.compile w in
      let dag = Program.dag p in
      let reach = Race_ref.reachability dag in
      let reads = Nd_dag.Dag.reads_of dag and writes = Nd_dag.Dag.writes_of dag in
      let what =
        Printf.sprintf "%s n=%d" w.Nd_algos.Workload.name w.Nd_algos.Workload.n
      in
      let races = Esp.find_races ~limit:max_int p in
      if races = [] then Alcotest.failf "%s: no race reported" what;
      let pairs = Hashtbl.create 64 in
      List.iter
        (fun (r : Race.race) ->
          let u = r.Race.u and v = r.Race.v in
          if Hashtbl.mem pairs (min u v, max u v) then
            Alcotest.failf "%s: pair %d/%d twice" what u v;
          Hashtbl.add pairs (min u v, max u v) ();
          if Race_ref.reachable reach u v || Race_ref.reachable reach v u then
            Alcotest.failf "%s: %d and %d are ordered" what u v;
          let ww = Is.inter (writes u) (writes v) in
          let rw =
            Is.union (Is.inter (reads u) (writes v)) (Is.inter (writes u) (reads v))
          in
          let write_write = not (Is.is_empty ww) in
          let overlap = if write_write then ww else rw in
          Alcotest.(check bool) (what ^ ": write_write") write_write r.Race.write_write;
          if Is.is_empty overlap || not (Is.equal overlap r.Race.overlap) then
            Alcotest.failf "%s: overlap of %d/%d is not their conflict" what u v)
        races;
      let exact = List.length (Race_ref.find_races ~limit:max_int dag) in
      if List.length races > exact then
        Alcotest.failf "%s: ESP reports %d pairs, exact finds %d" what
          (List.length races) exact)
    literal_cases

(* ---------------------- the limit on reported races ------------------- *)

let test_esp_limit () =
  (* ndsim race lists 16, --explain 8, E8 counts 64: each limit must cut
     the same serial-elision sequence *)
  let w =
    Nd_algos.Matmul.workload ~variant:Nd_algos.Matmul.Literal ~n:16 ~base:2
      ~seed:7 ()
  in
  let p = Nd_algos.Workload.compile w in
  let all = Esp.find_races ~limit:max_int p in
  let total = List.length all in
  if total <= 64 then Alcotest.failf "literal MM n=16: only %d races" total;
  List.iter
    (fun k ->
      let got = Esp.find_races ~limit:k p in
      Alcotest.(check int) (Printf.sprintf "limit %d: count" k) (min k total)
        (List.length got);
      Alcotest.(check bool) (Printf.sprintf "limit %d: a prefix" k) true
        (got = List.filteri (fun i _ -> i < k) all);
      Alcotest.(check int)
        (Printf.sprintf "limit %d: diagnose" k)
        (min k total)
        (List.length (Esp.diagnose ~limit:k p)))
    [ 1; 8; 16; 64; total; total + 1 ];
  Alcotest.(check int) "default limit" 16 (List.length (Esp.find_races p))

(* -------------------- E8's counts at its limit of 64 ------------------ *)

let test_esp_e8_counts () =
  (* E8 counts up to 64 races per row.  Uncapped, ESP reports fewer
     pairs than the exhaustive search on literal mm and trs (it finds a
     race at every racing location, not every racing pair), so the cap
     is what keeps E8's column equal to the exact one *)
  let seed = 20160215 and n = 16 and base = 2 in
  let open Nd_algos in
  let rows =
    [
      ("mm/literal", Matmul.workload ~variant:Matmul.Literal ~n ~base ~seed (), 64);
      ("mm/safe", Matmul.workload ~variant:Matmul.Safe ~n ~base ~seed (), 0);
      ("trs/literal", Trs.workload ~variant:Trs.Literal ~n ~base ~seed (), 64);
      ("trs/corrected", Trs.workload ~variant:Trs.Corrected ~n ~base ~seed (), 0);
      ("lcs/literal", Lcs.workload ~variant:`Literal ~n ~base ~seed (), 16);
      ("lcs/corrected", Lcs.workload ~variant:`Corrected ~n ~base ~seed (), 0);
      ("fw1d/literal", Fw1d.workload ~variant:`Literal ~n ~base ~seed (), 5);
      ("fw1d/corrected", Fw1d.workload ~variant:`Corrected ~n ~base ~seed (), 0);
      ("cholesky", Cholesky.workload ~n ~base ~seed (), 0);
      ("apsp", Fw2d.workload ~n ~base ~seed (), 0);
      ("lu", Lu.workload ~n ~base ~seed (), 0);
    ]
  in
  List.iter
    (fun (name, w, expected) ->
      let p = Workload.compile w in
      let esp = List.length (Esp.find_races ~limit:64 p) in
      let exact = List.length (Race_ref.find_races ~limit:64 (Program.dag p)) in
      Alcotest.(check int) (name ^ ": ESP") expected esp;
      Alcotest.(check int) (name ^ ": exact") expected exact)
    rows

(* -------------------- ESP on a 98k-vertex program -------------------- *)

let test_esp_large_program () =
  (* FW-2D (apsp) at n=64 compiles to ~98k vertices, past what the
     quadratic reference can hold; the ESP pass answers, and the program
     exercises both query paths (S-bag hits and ~757k fire edges).
     BENCH_3 covers the scaling sweep. *)
  let fam = Nd_experiments.Workloads.find "apsp" in
  let w = Nd_experiments.Workloads.build ~n:64 ~base:2 fam ~seed:7 in
  let p = Nd_algos.Workload.compile w in
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
  (* the ESP diagnosis must carry LCA + pedigrees that the exhaustive
     search's races lift to *)
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
    List.map key (Race_ref.diagnose ~limit:1_000 p)
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

(* Par [r1; Seq [r2; w]]: r1 and r2 read cell 0 and w writes it.  w is
   ordered after r2 but not after r1, so (r1, w) is the one race, and
   only a reader antichain that still holds r1 when w writes finds it. *)
let test_esp_keeps_parallel_readers () =
  let cell = Nd_util.Interval_set.interval 0 1 and e = Nd_util.Interval_set.empty in
  let s label ~reads ~writes =
    Spawn_tree.leaf (Strand.make ~label ~work:1 ~reads ~writes ())
  in
  let p =
    Program.compile ~registry:Fire_rule.empty_registry
      (Spawn_tree.par
         [
           s "r1" ~reads:cell ~writes:e;
           Spawn_tree.seq [ s "r2" ~reads:cell ~writes:e; s "w" ~reads:e ~writes:cell ];
         ])
  in
  let dag = Program.dag p in
  let labels (r : Nd_dag.Race.race) =
    (Nd_dag.Dag.label dag r.Nd_dag.Race.u, Nd_dag.Dag.label dag r.Nd_dag.Race.v)
  in
  let pair = Alcotest.(list (pair string string)) in
  Alcotest.check pair "exact" [ ("r1", "w") ]
    (List.map labels (Race_ref.find_races dag));
  Alcotest.check pair "ESP" [ ("r1", "w") ] (List.map labels (Esp.find_races p))

(* -------------------- lint: registry defect classes ------------------ *)

let strand label =
  Spawn_tree.leaf
    (Strand.make ~label ~work:1 ~reads:Nd_util.Interval_set.empty
       ~writes:Nd_util.Interval_set.empty ())

let find_ids id findings = List.filter (fun f -> f.Lint.id = id) findings

(* [part] occurs in [m] *)
let contains m part =
  let n = String.length part in
  let rec at i =
    i + n <= String.length m && (String.sub m i n = part || at (i + 1))
  in
  at 0

let severity f =
  match f.Lint.severity with Lint.Error -> "error" | Lint.Warning -> "warning"

let test_lint_dangling_and_dead () =
  (* dangling: a rule's via names an undefined fire type *)
  let dangling =
    Fire_rule.define Fire_rule.empty_registry "H"
      [ Fire_rule.rule [ 1 ] (Fire_rule.Named "NOPE") [ 1 ] ]
  in
  let fs = Lint.lint_registry dangling in
  (match find_ids "ND001" fs with
  | [ f ] ->
    Alcotest.(check string) "severity" "error" (severity f);
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
      (severity f);
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

(* ND005 says what the rewriting does with the cycle it reports.  On
   Fire A (Seq [a; b]) (Seq [c; d]), whose four leaves all write one
   cell, a type that fires itself with empty pedigrees degrades to one
   full edge, which orders the two sides; a cycle through two types
   comes back to A and emits no edge, so the sides race. *)
let test_lint_no_progress_cycles () =
  let cell = Nd_util.Interval_set.interval 0 1 in
  let leaf label =
    Spawn_tree.leaf
      (Strand.make ~label ~work:1 ~reads:Nd_util.Interval_set.empty
         ~writes:cell ())
  in
  let tree =
    Spawn_tree.fire ~rule:"A"
      (Spawn_tree.seq [ leaf "a"; leaf "b" ])
      (Spawn_tree.seq [ leaf "c"; leaf "d" ])
  in
  List.iter
    (fun (what, defs, edges, says) ->
      let reg =
        List.fold_left
          (fun reg (name, via) ->
            Fire_rule.define reg name
              [ Fire_rule.rule [] (Fire_rule.Named via) [] ])
          Fire_rule.empty_registry defs
      in
      let fs = find_ids "ND005" (Lint.lint_registry reg) in
      Alcotest.(check int) (what ^ ": types flagged") (List.length defs)
        (List.length fs);
      List.iter
        (fun f ->
          if not (contains f.Lint.message says) then
            Alcotest.failf "%s: %S lacks %S" what f.Lint.message says)
        fs;
      let p = Program.compile ~registry:reg tree in
      Alcotest.(check int) (what ^ ": fire edges") edges (Program.n_fire_edges p);
      Alcotest.(check bool) (what ^ ": the sides race") (edges = 0)
        (Esp.find_races p <> []))
    [
      ("A=[<>~A<>]", [ ("A", "A") ], 1, "degrades to a conservative full edge");
      ("A=[<>~B<>], B=[<>~A<>]", [ ("A", "B"); ("B", "A") ], 0, "emits no edge");
    ]

(* Races that need no rule to find: Par siblings, and the two sides of
   a fire whose rule set is empty.  Lint reports them as ND009, the
   ESP-bags finding, named by the LCA's kind; a race is a program
   finding, so it no longer hides the tree's dead rules and span
   findings. *)
let test_lint_par_races () =
  let is = Nd_util.Interval_set.interval in
  let w label iv =
    Spawn_tree.leaf
      (Strand.make ~label ~work:1 ~reads:Nd_util.Interval_set.empty
         ~writes:iv ())
  in
  let x () = w "x" (is 0 2) and y () = w "y" (is 1 3) in
  let ids fs = List.map (fun f -> f.Lint.id) fs in
  let one_race subject fs =
    Alcotest.(check (list string)) "findings" [ "ND009" ] (ids fs);
    let f = List.hd fs in
    Alcotest.(check string) "severity" "error" (severity f);
    Alcotest.(check string) "LCA" subject f.Lint.subject;
    let m = f.Lint.message in
    List.iter
      (fun part ->
        if not (contains m part) then Alcotest.failf "message %S lacks %S" m part)
      [ "write-write race between"; "on {1}"; "needs an arrow +<1> -> -<2>" ]
  in
  one_race "par"
    (Lint.lint_all ~registry:Fire_rule.empty_registry
       (Spawn_tree.par [ x (); y () ]));
  let bare = Fire_rule.define Fire_rule.empty_registry "E" [] in
  one_race "fire \"E\""
    (Lint.lint_all ~registry:bare (Spawn_tree.fire ~rule:"E" (x ()) (y ())));
  (* the same overlap under Seq is ordered: no finding *)
  Alcotest.(check (list string)) "seq overlap is fine" []
    (ids
       (Lint.lint_all ~registry:Fire_rule.empty_registry
          (Spawn_tree.seq [ x (); y () ])));
  (* a dead rule (step 3 of a 2-child Seq) that recovers no span, beside
     the Par race: all three findings *)
  let dead =
    Fire_rule.define Fire_rule.empty_registry "D"
      [ Fire_rule.rule [ 3 ] Fire_rule.Full [ 1 ] ]
  in
  let tree =
    Spawn_tree.seq
      [
        Spawn_tree.fire ~rule:"D"
          (Spawn_tree.seq [ strand "a"; strand "b" ])
          (Spawn_tree.seq [ strand "c"; strand "d" ]);
        Spawn_tree.par [ x (); y () ];
      ]
  in
  let fs = Lint.lint_all ~registry:dead tree in
  Alcotest.(check (list string)) "dead rule, no span, race"
    [ "ND002"; "ND007"; "ND009" ] (ids fs);
  Alcotest.(check (list string)) "subjects" [ "D"; "program"; "par" ]
    (List.map (fun f -> f.Lint.subject) fs)

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

(* the reading a client of [ndsim lint --json] makes of one object *)
let finding_of_json j =
  (match j with
  | Json.Obj fields ->
    Alcotest.(check (list string)) "fields"
      [ "id"; "severity"; "subject"; "message" ] (List.map fst fields)
  | _ -> Alcotest.fail "finding is not an object");
  let field k =
    match Json.member k j with
    | Some v -> Json.to_string_exn v
    | None -> Alcotest.failf "missing field %s" k
  in
  let severity =
    match field "severity" with
    | "error" -> Lint.Error
    | "warning" -> Lint.Warning
    | s -> Alcotest.failf "unknown severity %S" s
  in
  { Lint.id = field "id"; severity; subject = field "subject"; message = field "message" }

let json_round_trip findings =
  List.map finding_of_json
    (Json.to_list (Json.parse (Json.to_string (Lint.to_json findings))))

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
  Alcotest.(check bool) "round-trip" true (json_round_trip findings = findings)

let test_lint_json_extended_catalogue () =
  (* the structural ids ND010-ND013 and text that needs escaping *)
  let mk id message = { Lint.id; severity = Lint.Warning; subject = "t"; message } in
  let findings =
    [
      mk "ND010" "span \"sweep\"\n\tslope 1.02";
      mk "ND011" "path a\\b";
      mk "ND012" "\xce\xbb \xf0\x9f\x98\x80";
      mk "ND013" "";
    ]
  in
  Alcotest.(check bool) "extended round-trip" true
    (json_round_trip findings = findings)

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
  let fs = [ mk "ND009" Lint.Error; mk "ND012" Lint.Warning ] in
  Alcotest.(check int) "warning keeps all" 2
    (List.length (Lint.filter_min_severity Lint.Warning fs));
  match Lint.filter_min_severity Lint.Error fs with
  | [ f ] -> Alcotest.(check string) "error only" "ND009" f.Lint.id
  | o -> Alcotest.failf "expected 1 finding, got %d" (List.length o)

(* ------------- Cost and Pcc == the tree references ------------------ *)

module Pcc = Nd_mem.Pcc

let q_star_ms = [ 1; 2; 8; 64 ]

(* [of_program]'s report and [Pcc.q_star] against [Cost_ref]'s
   compile-free passes over the bare tree: work, root size, peak and
   leaves from its footprint recursion, Q* from its serial recurrence,
   and span and fire pairs from its event sweep *)
let check_cost_matches_exact ~what p =
  let r = Cost.report (Cost.of_program p) in
  let tree = Program.tree p in
  let want = Cost_ref.of_tree tree in
  let ts = Cost_ref.tree_span ~registry:(Program.registry p) tree in
  let check name got exp =
    if got <> exp then
      Alcotest.failf "%s: %s %d <> the reference's %d" what name got exp
  in
  check "work" r.Cost.work want.Cost_ref.work;
  check "span" r.Cost.span ts.Cost_ref.span;
  check "fire pairs" r.Cost.n_fire_edges ts.Cost_ref.n_fire_edges;
  check "leaves" r.Cost.n_leaves want.Cost_ref.n_leaves;
  check "root size" r.Cost.root_size want.Cost_ref.size;
  check "peak" r.Cost.peak_footprint want.Cost_ref.peak;
  List.iter
    (fun m ->
      check
        (Printf.sprintf "Pcc Q*(m=%d)" m)
        (Pcc.q_star p ~m) (Cost_ref.q_star want ~m))
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
      (match Cost_ref.tree_span ~registry:inst.Gen.registry inst.Gen.tree with
      | exception Invalid_argument _ -> ()
      | _ ->
        Alcotest.failf "seed %d: compile refused but Cost_ref.tree_span passed"
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

(* Seq [ Par [a; b]; Par [c; d] ], each strand of work 1 writing four
   words except d, which writes two of a's: the peak is the larger Par's
   sum, 8, where the root touches 12 words, and every Q* is worked by
   hand (a node of size <= m costs its size, any other 1 plus its
   children's) *)
let test_cost_hand () =
  let strand label lo hi =
    Spawn_tree.leaf
      (Strand.make ~label ~work:1 ~reads:Nd_util.Interval_set.empty
         ~writes:(Nd_util.Interval_set.interval lo hi) ())
  in
  let tree =
    Spawn_tree.seq
      [
        Spawn_tree.par [ strand "a" 0 4; strand "b" 4 8 ];
        Spawn_tree.par [ strand "c" 8 12; strand "d" 0 2 ];
      ]
  in
  let p = Program.compile ~registry:Fire_rule.empty_registry tree in
  let r = Cost.report (Cost.of_program p) in
  let want = Cost_ref.of_tree tree in
  List.iter
    (fun (name, exp, got, reference) ->
      Alcotest.(check int) name exp got;
      Alcotest.(check int) (name ^ ", Cost_ref") exp reference)
    [
      ("work", 4, r.Cost.work, want.Cost_ref.work);
      ("root size", 12, r.Cost.root_size, want.Cost_ref.size);
      ("peak", 8, r.Cost.peak_footprint, want.Cost_ref.peak);
      ("leaves", 4, r.Cost.n_leaves, want.Cost_ref.n_leaves);
    ];
  Alcotest.(check int) "span" 2 r.Cost.span;
  Alcotest.(check int) "nodes" 7 r.Cost.n_nodes;
  List.iter
    (fun (m, q) ->
      let name = Printf.sprintf "Q*(m=%d)" m in
      Alcotest.(check int) name q (Pcc.q_star p ~m);
      Alcotest.(check int) (name ^ ", Cost_ref") q (Cost_ref.q_star want ~m))
    [ (12, 12); (8, 15); (6, 16); (4, 17); (1, 17) ]

(* certify_theorem1 bounds cache level j with Pcc.q_star at SB's own
   capacity m = max 1 (floor (sigma * M_j)), against the misses of SB's
   ρ run at the same sigma, and the bound holds on every family *)
let test_certify_levels () =
  let machine = Nd_serve.Server.standard_machine ~top:1 in
  let n_levels = Nd_pmh.Pmh.n_levels machine in
  List.iter
    (fun fam ->
      let n = List.hd fam.Nd_experiments.Workloads.sizes in
      let w = Nd_experiments.Workloads.build ~n fam ~seed:7 in
      let p = Nd_algos.Workload.compile w in
      List.iter
        (fun sigma ->
          let what =
            Printf.sprintf "%s n=%d sigma=%.2f"
              fam.Nd_experiments.Workloads.name n sigma
          in
          let c = Cost.certify_theorem1 ~sigma p machine in
          let stats =
            Nd_sched.Sb_sched.run ~sigma ~accounting:Nd_sched.Sb_sched.Rho p
              machine
          in
          Alcotest.(check int) (what ^ " levels") n_levels
            (List.length c.Cost.levels);
          List.iteri
            (fun j l ->
              let m =
                max 1
                  (int_of_float
                     (sigma
                     *. float_of_int (Nd_pmh.Pmh.size machine ~level:(j + 1))))
              in
              let at = Printf.sprintf "%s level %d" what (j + 1) in
              Alcotest.(check int) (at ^ " index") (j + 1) l.Cost.level;
              Alcotest.(check int) (at ^ " m") m l.Cost.m;
              Alcotest.(check int) (at ^ " bound") (Pcc.q_star p ~m)
                l.Cost.bound;
              Alcotest.(check int) (at ^ " misses")
                stats.Nd_sched.Sb_sched.misses.(j) l.Cost.misses)
            c.Cost.levels;
          Alcotest.(check bool) (what ^ " certified") true c.Cost.certified)
        [ 1. /. 3.; 0.5 ];
      if
        Cost.certify_theorem1 p machine
        <> Cost.certify_theorem1 ~sigma:(1. /. 3.) p machine
      then
        Alcotest.failf "%s n=%d: sigma does not default to 1/3"
          fam.Nd_experiments.Workloads.name n)
    Nd_experiments.Workloads.all

(* of_program reads the compiled program in one pass that keeps one int
   a node: one call after a warm-up allocates at most 8 words a
   spawn-tree node outside the minor heap (promoted plus direct), on mm
   n=32 b=2 and on lcs n=1024 b=16, whose nodes are all distinct
   subtrees *)
let test_cost_alloc () =
  List.iter
    (fun (name, n, base) ->
      let w =
        Nd_experiments.Workloads.build ~n ~base
          (Nd_experiments.Workloads.find name) ~seed:1
      in
      let p = Nd_algos.Workload.compile w in
      ignore (Cost.of_program p);
      Gc.minor ();
      let _, _, major0 = Gc.counters () in
      let cost = Cost.of_program p in
      let _, _, major1 = Gc.counters () in
      let per_node = (major1 -. major0) /. float_of_int (Program.n_nodes p) in
      if per_node > 8. then
        Alcotest.failf
          "%s n=%d b=%d: of_program allocated %.0f words outside the minor \
           heap, %.1f a node (%d nodes); the bound is 8"
          name n base (major1 -. major0) per_node (Program.n_nodes p);
      ignore (Sys.opaque_identity cost))
    [ ("mm", 32, 2); ("lcs", 1024, 16) ]

(* -------------- Cost at paper scale: pinned golden table -------------- *)

let test_cost_paper_scale_golden () =
  (* mm and apsp at n=512, ~98k-vertex DAGs: the references still agree
     here, and the pinned numbers guard against silent drift of both *)
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
      check_cost_matches_exact ~what:(Printf.sprintf "%s n=%d" name n) p;
      let r = Cost.report (Cost.of_program p) in
      Alcotest.(check int) (name ^ " work") work r.Cost.work;
      Alcotest.(check int) (name ^ " span") span r.Cost.span;
      Alcotest.(check int) (name ^ " root size") root_size r.Cost.root_size;
      Alcotest.(check int) (name ^ " Q*(1365)") q1365 (Pcc.q_star p ~m:1365))
    golden

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
          Alcotest.test_case "apsp n=64 (98k vertices)" `Slow
            test_esp_large_program;
          Alcotest.test_case "diagnoses the dropped FG rule" `Quick
            test_esp_diagnoses_dropped_rule;
          Alcotest.test_case "keeps parallel readers" `Quick
            test_esp_keeps_parallel_readers;
          Alcotest.test_case "reported races are real" `Quick
            test_esp_races_are_real;
          Alcotest.test_case "limit cuts one sequence" `Quick test_esp_limit;
          Alcotest.test_case "E8 counts at limit 64" `Slow test_esp_e8_counts;
        ] );
      ( "lint",
        [
          Alcotest.test_case "rejects literal MM" `Quick
            test_lint_rejects_literal_mm;
          Alcotest.test_case "dangling + dead rules" `Quick
            test_lint_dangling_and_dead;
          Alcotest.test_case "duplicate, shadow, cycle" `Quick
            test_lint_duplicate_shadow_cycle;
          Alcotest.test_case "no-progress cycles (ND005)" `Quick
            test_lint_no_progress_cycles;
          Alcotest.test_case "par and empty-fire races (ND009)" `Quick
            test_lint_par_races;
          Alcotest.test_case "shipped rule sets clean" `Quick
            test_lint_shipped_sets_clean;
          Alcotest.test_case "JSON round-trip" `Quick
            test_lint_json_roundtrip;
          Alcotest.test_case "JSON extended catalogue" `Quick
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
          Alcotest.test_case "hand example: peak and Q*" `Quick
            test_cost_hand;
          Alcotest.test_case "certify reads SB's level cuts" `Quick
            test_certify_levels;
          Alcotest.test_case "of_program allocation" `Quick test_cost_alloc;
          Alcotest.test_case "paper-scale golden" `Slow
            test_cost_paper_scale_golden;
        ] );
    ]
