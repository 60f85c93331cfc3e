module Prng = Nd_util.Prng
open Nd_algos

(* A workload is correct when (a) its ND DAG is determinacy-race free and
   (b) executing the strands in a randomized topological order reproduces
   the serial reference.  Together these imply every legal schedule —
   including the multicore executors' — computes the right answer. *)
let check_workload ?(orders = 3) ~tol name (w : Workload.t) =
  let p = Workload.compile w in
  (match Race_ref.find_races ~limit:4 (Nd.Program.dag p) with
  | [] -> ()
  | races ->
    Alcotest.failf "%s: %d races, first: %s" name (List.length races)
      (Format.asprintf "%a" (Nd_dag.Race.pp_race (Nd.Program.dag p))
         (List.hd races)));
  for k = 1 to orders do
    w.Workload.reset ();
    Nd.Serial_exec.run ~rng:(Prng.create (1000 + k)) p;
    let err = w.Workload.check () in
    if err > tol then Alcotest.failf "%s: order %d err %g > %g" name k err tol
  done;
  (* the NP projection must be correct too *)
  let pnp = Workload.compile ~mode:Workload.NP w in
  w.Workload.reset ();
  Nd.Serial_exec.run ~rng:(Prng.create 77) pnp;
  let err = w.Workload.check () in
  if err > tol then Alcotest.failf "%s: NP err %g > %g" name err tol

let spans w =
  let nd = Workload.compile w and np = Workload.compile ~mode:Workload.NP w in
  ( (Nd.Analysis.analyze nd).Nd.Analysis.span,
    (Nd.Analysis.analyze np).Nd.Analysis.span,
    (Nd.Analysis.analyze nd).Nd.Analysis.work,
    (Nd.Analysis.analyze np).Nd.Analysis.work )

let test_correct name mk tol () = check_workload ~tol name (mk ())

let test_nd_span_le_np mk () =
  let snd_, snp, wnd, wnp = spans (mk ()) in
  Alcotest.(check int) "work preserved by projection" wnd wnp;
  Alcotest.(check bool)
    (Printf.sprintf "span ND (%d) <= span NP (%d)" snd_ snp)
    true (snd_ <= snp)

(* the paper's span separations at a fixed size: strict improvements *)
let test_strict_separation () =
  let strict mk =
    let snd_, snp, _, _ = spans (mk ()) in
    Alcotest.(check bool) "strictly better" true (snd_ < snp)
  in
  strict (fun () -> Trs.workload ~n:32 ~base:2 ~seed:5 ());
  strict (fun () -> Cholesky.workload ~n:32 ~base:2 ~seed:5 ());
  strict (fun () -> Lcs.workload ~n:64 ~base:2 ~seed:5 ());
  strict (fun () -> Fw1d.workload ~n:64 ~base:2 ~seed:5 ());
  strict (fun () -> Gotoh.workload ~n:64 ~base:2 ~seed:5 ())

(* ND spans grow linearly: doubling n at most ~doubles the span *)
let test_linear_span_growth () =
  let ratio mk_small mk_big =
    let s1, _, _, _ = spans (mk_small ()) in
    let s2, _, _, _ = spans (mk_big ()) in
    float_of_int s2 /. float_of_int s1
  in
  let check name r =
    if r > 2.5 then Alcotest.failf "%s: span ratio %.2f superlinear" name r
  in
  check "trs"
    (ratio
       (fun () -> Trs.workload ~n:16 ~base:2 ~seed:1 ())
       (fun () -> Trs.workload ~n:32 ~base:2 ~seed:1 ()));
  check "cholesky"
    (ratio
       (fun () -> Cholesky.workload ~n:16 ~base:2 ~seed:1 ())
       (fun () -> Cholesky.workload ~n:32 ~base:2 ~seed:1 ()));
  check "lcs"
    (ratio
       (fun () -> Lcs.workload ~n:64 ~base:2 ~seed:1 ())
       (fun () -> Lcs.workload ~n:128 ~base:2 ~seed:1 ()));
  check "fw1d"
    (ratio
       (fun () -> Fw1d.workload ~n:64 ~base:2 ~seed:1 ())
       (fun () -> Fw1d.workload ~n:128 ~base:2 ~seed:1 ()))

(* the paper-literal rule sets must be flagged as racy *)
let test_literal_rules_racy () =
  let racy name w =
    let p = Workload.compile w in
    Alcotest.(check bool) (name ^ " literal is racy") false
      (Race_ref.race_free (Nd.Program.dag p))
  in
  racy "mm" (Matmul.workload ~variant:Matmul.Literal ~n:16 ~base:2 ~seed:2 ());
  racy "trs" (Trs.workload ~variant:Trs.Literal ~n:16 ~base:2 ~seed:2 ());
  racy "lcs" (Lcs.workload ~variant:`Literal ~n:16 ~base:2 ~seed:2 ());
  racy "fw1d" (Fw1d.workload ~variant:`Literal ~n:16 ~base:2 ~seed:2 ())

let test_mm8_span_much_smaller () =
  let w8 = Matmul.workload8 ~n:32 ~base:2 ~seed:3 () in
  let w2 = Matmul.workload ~n:32 ~base:2 ~seed:3 () in
  let s8, _, _, _ = spans w8 and s2, _, _, _ = spans w2 in
  Alcotest.(check bool)
    (Printf.sprintf "8-way span %d < 2-way span %d / 4" s8 s2)
    true
    (s8 * 4 < s2)

let test_shape_validation () =
  Alcotest.check_raises "n not pow2"
    (Invalid_argument "Workload: n must be a power of two") (fun () ->
      ignore (Matmul.workload ~n:12 ~base:2 ~seed:1 ()));
  Alcotest.check_raises "base > n" (Invalid_argument "Workload: base > n")
    (fun () -> ignore (Matmul.workload ~n:4 ~base:8 ~seed:1 ()));
  Alcotest.check_raises "lu base = n"
    (Invalid_argument "Lu.workload: base must be smaller than n for a panel chain")
    (fun () -> ignore (Lu.workload ~n:8 ~base:8 ~seed:1 ()))

(* property: every family correct across a few random sizes/seeds *)
let prop_random_instances =
  QCheck2.Test.make ~name:"random instances execute correctly" ~count:12
    QCheck2.Gen.(
      pair (int_range 0 6) (int_range 1 1000))
    (fun (which, seed) ->
      let w, tol =
        match which with
        | 0 -> (Matmul.workload ~n:8 ~base:2 ~seed (), 1e-9)
        | 1 -> (Trs.workload ~n:8 ~base:2 ~seed (), 1e-8)
        | 2 -> (Cholesky.workload ~n:8 ~base:2 ~seed (), 1e-8)
        | 3 -> (Lu.workload ~n:8 ~base:2 ~seed (), 1e-8)
        | 4 -> (Lcs.workload ~n:16 ~base:2 ~seed (), 0.)
        | 5 -> (Fw1d.workload ~n:16 ~base:2 ~seed (), 0.)
        | _ -> (Fw2d.workload ~n:8 ~base:2 ~seed (), 1e-12)
      in
      let p = Workload.compile w in
      w.Workload.reset ();
      Nd.Serial_exec.run ~rng:(Prng.create seed) p;
      w.Workload.check () <= tol)

(* A NaN compares false with everything, so a max that skips it would
   pass a backend that writes NaN. *)
let test_nan_deviation () =
  let pair () =
    let a = Mat.alloc (Mat.create_space ()) ~rows:2 ~cols:2 in
    let b = Mat.alloc (Mat.create_space ()) ~rows:2 ~cols:2 in
    Mat.fill a (fun i j -> float_of_int ((2 * i) + j));
    Mat.fill b (fun i j -> float_of_int ((2 * i) + j));
    (a, b)
  in
  let a, b = pair () in
  Mat.set a 1 0 Float.nan;
  Alcotest.(check (float 0.)) "one NaN cell" infinity (Mat.max_abs_diff a b);
  Alcotest.(check (float 0.)) "lower, one NaN cell" infinity (Mat.max_abs_diff_lower a b);
  Alcotest.(check (float 0.)) "NaN on the other side" infinity (Mat.max_abs_diff b a);
  Mat.set b 0 1 0.5;
  Alcotest.(check (float 0.)) "and a cell off by 0.5" infinity (Mat.max_abs_diff a b);
  let a, b = pair () in
  Mat.set b 0 1 (Mat.get b 0 1 +. 0.5);
  Alcotest.(check (float 0.)) "no NaN" 0.5 (Mat.max_abs_diff a b);
  Alcotest.(check (float 0.)) "lower skips the upper cell" 0. (Mat.max_abs_diff_lower a b);
  Alcotest.(check (float 0.)) "deviation" infinity (Mat.deviation 1. Float.nan)

(* With no run, the operands hold the inputs, not the answer: a check
   that always returns 0 fails this. *)
let test_unrun_fails name mk tol () =
  let w = mk () in
  w.Workload.reset ();
  let err = w.Workload.check () in
  if not (err > tol) then Alcotest.failf "%s: check %g after reset alone, tolerance %g" name err tol

(* the sequences [Lcs.workload] draws from [seed] *)
let lcs_sequences ~n ~seed =
  let rng = Prng.create seed in
  let draw () = Array.init n (fun _ -> Prng.int rng 4) in
  let s = draw () in
  (s, draw ())

(* the textbook LCS length, over the full table *)
let lcs_length a b =
  let n = Array.length a and m = Array.length b in
  let d = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = 1 to n do
    for j = 1 to m do
      d.(i).(j) <-
        (if a.(i - 1) = b.(j - 1) then d.(i - 1).(j - 1) + 1
         else max d.(i - 1).(j) d.(i).(j - 1))
    done
  done;
  d.(n).(m)

(* the leaves' actions in tree order, which is a topological order *)
let leaf_actions tree =
  let rec go acc = function
    | Nd.Spawn_tree.Leaf s -> Option.fold ~none:acc ~some:(fun f -> f :: acc) s.Nd.Strand.action
    | Nd.Spawn_tree.Seq l | Nd.Spawn_tree.Par l -> List.fold_left go acc l
    | Nd.Spawn_tree.Fire { src; snk; _ } -> go (go acc src) snk
  in
  List.rev (go [] tree)

(* lcs's check recomputes the reference a row at a time.  The table is
   monotone, so its largest cell is the LCS length at (n, n): that is
   the deviation of an unrun table, and of a run that skips the last
   leaf, the bottom-right block, and leaves that cell 0. *)
let test_lcs_row_check () =
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          let w = Lcs.workload ~n ~base:(min n 4) ~seed () in
          let a, b = lcs_sequences ~n ~seed in
          let len = float_of_int (lcs_length a b) in
          let label what = Printf.sprintf "n=%d seed=%d %s" n seed what in
          w.Workload.reset ();
          Alcotest.(check (float 0.)) (label "reset alone") len (w.Workload.check ());
          let leaves = leaf_actions w.Workload.tree in
          w.Workload.reset ();
          List.iteri (fun i f -> if i < List.length leaves - 1 then f ()) leaves;
          Alcotest.(check (float 0.)) (label "last leaf skipped") len (w.Workload.check ());
          w.Workload.reset ();
          List.iter (fun f -> f ()) leaves;
          Alcotest.(check (float 0.)) (label "full run") 0. (w.Workload.check ()))
        [ 1; 7; 42 ])
    [ 1; 2; 16; 64 ]

(* No leaf writes row 0 of the table or either sequence, so only a
   corrupted operand can show that [check] compares them. *)
let lcs_run w = List.iter (fun f -> f ()) (leaf_actions w.Workload.tree)

let test_lcs_check_sees_row0 () =
  let w, x, _, _ = Lcs.workload_with_operands ~n:16 ~base:4 ~seed:3 () in
  w.Workload.reset ();
  lcs_run w;
  Alcotest.(check (float 0.)) "clean run" 0. (w.Workload.check ());
  Mat.set x 0 5 1.;
  if not (w.Workload.check () > 0.) then Alcotest.fail "row 0 corrupted after the run"

(* A sequence cell changed after [reset], before the run: the run then
   computes a table consistent with the corrupted sequence, which a
   check reading the sequences from the operands would accept. *)
let test_lcs_check_sees_sequences () =
  List.iter
    (fun which ->
      let w, _, s, t = Lcs.workload_with_operands ~n:16 ~base:4 ~seed:3 () in
      let m = if which = "s" then s else t in
      w.Workload.reset ();
      Mat.set m 0 7 (Float.rem (Mat.get m 0 7 +. 1.) 4.);
      lcs_run w;
      if not (w.Workload.check () > 0.) then
        Alcotest.failf "%s corrupted before the run" which)
    [ "s"; "t" ]

let correctness_cases =
  [
    ("mm n=16 b=2", (fun () -> Matmul.workload ~n:16 ~base:2 ~seed:11 ()), 1e-9);
    ("mm n=16 b=4", (fun () -> Matmul.workload ~n:16 ~base:4 ~seed:12 ()), 1e-9);
    ("mm n=16 b=16 (single leaf)",
     (fun () -> Matmul.workload ~n:16 ~base:16 ~seed:13 ()), 1e-9);
    ("mm8 n=16", (fun () -> Matmul.workload8 ~n:16 ~base:2 ~seed:14 ()), 1e-9);
    ("trs n=16", (fun () -> Trs.workload ~n:16 ~base:2 ~seed:15 ()), 1e-8);
    ("trsr n=16", (fun () -> Trs.workload_right ~n:16 ~base:2 ~seed:16 ()), 1e-8);
    ("cholesky n=16", (fun () -> Cholesky.workload ~n:16 ~base:2 ~seed:17 ()), 1e-8);
    ("lu n=16", (fun () -> Lu.workload ~n:16 ~base:2 ~seed:18 ()), 1e-8);
    ("lu n=16 b=4", (fun () -> Lu.workload ~n:16 ~base:4 ~seed:19 ()), 1e-8);
    ("lcs n=32", (fun () -> Lcs.workload ~n:32 ~base:2 ~seed:20 ()), 0.);
    ("lcs n=32 b=8", (fun () -> Lcs.workload ~n:32 ~base:8 ~seed:21 ()), 0.);
    ("fw1d n=32", (fun () -> Fw1d.workload ~n:32 ~base:2 ~seed:22 ()), 0.);
    ("gotoh n=32", (fun () -> Gotoh.workload ~n:32 ~base:2 ~seed:25 ()), 0.);
    ("stencil n=32", (fun () -> Stencil.workload ~n:32 ~base:4 ~seed:27 ()), 0.);
    ("stencil n=32 b=16", (fun () -> Stencil.workload ~n:32 ~base:16 ~seed:28 ()), 0.);
    ("gotoh n=32 b=8", (fun () -> Gotoh.workload ~n:32 ~base:8 ~seed:26 ()), 0.);
    ("apsp n=16", (fun () -> Fw2d.workload ~n:16 ~base:2 ~seed:23 ()), 1e-12);
    ("apsp n=16 b=4", (fun () -> Fw2d.workload ~n:16 ~base:4 ~seed:24 ()), 1e-12);
  ]

let () =
  let correctness =
    List.map
      (fun (name, mk, tol) ->
        Alcotest.test_case name `Quick (test_correct name mk tol))
      correctness_cases
  in
  let span_cases =
    List.map
      (fun (name, mk, _) ->
        Alcotest.test_case name `Quick (test_nd_span_le_np mk))
      correctness_cases
  in
  let unrun_cases =
    List.map
      (fun (name, mk, tol) ->
        Alcotest.test_case name `Quick (test_unrun_fails name mk tol))
      correctness_cases
  in
  Alcotest.run "nd_algos"
    [
      ("correctness (race-free + randomized orders)", correctness);
      ("span: ND <= NP", span_cases);
      ("checks catch wrong answers: reset alone", unrun_cases);
      ( "checks",
        [
          Alcotest.test_case "NaN deviates infinitely" `Quick test_nan_deviation;
          Alcotest.test_case "lcs row check" `Quick test_lcs_row_check;
          Alcotest.test_case "lcs check sees row 0" `Quick test_lcs_check_sees_row0;
          Alcotest.test_case "lcs check sees the sequences" `Quick
            test_lcs_check_sees_sequences;
        ] );
      ( "span separations",
        [
          Alcotest.test_case "strict ND < NP" `Quick test_strict_separation;
          Alcotest.test_case "linear ND growth" `Quick test_linear_span_growth;
          Alcotest.test_case "mm8 polylog span" `Quick test_mm8_span_much_smaller;
        ] );
      ( "rule sets",
        [ Alcotest.test_case "literal sets racy" `Quick test_literal_rules_racy ] );
      ( "validation",
        [ Alcotest.test_case "shape checks" `Quick test_shape_validation ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_instances ]);
    ]
