module Is = Nd_util.Interval_set
open Nd_algos

let test_alloc () =
  let s = Mat.create_space () in
  let a = Mat.alloc s ~rows:4 ~cols:8 in
  let b = Mat.alloc s ~rows:2 ~cols:2 in
  Alcotest.(check int) "a base" 0 a.Mat.base;
  Alcotest.(check int) "b base" 32 b.Mat.base;
  Alcotest.(check int) "words" 36 (Mat.words s);
  Alcotest.(check (float 0.)) "zero init" 0. (Mat.get a 3 7)

let test_addr_region () =
  let s = Mat.create_space () in
  let a = Mat.alloc s ~rows:4 ~cols:4 in
  Alcotest.(check int) "addr" 9 (Mat.addr a 2 1);
  Alcotest.(check (list (pair int int))) "contiguous region" [ (0, 16) ]
    (Is.intervals (Mat.region a));
  let v = Mat.sub a ~r0:1 ~c0:1 ~rows:2 ~cols:2 in
  Alcotest.(check (list (pair int int))) "strided region" [ (5, 7); (9, 11) ]
    (Is.intervals (Mat.region v))

let test_sub_view_aliasing () =
  let s = Mat.create_space () in
  let a = Mat.alloc s ~rows:4 ~cols:4 in
  let v = Mat.sub a ~r0:2 ~c0:2 ~rows:2 ~cols:2 in
  Mat.set v 0 0 7.;
  Alcotest.(check (float 0.)) "aliases parent" 7. (Mat.get a 2 2);
  Alcotest.check_raises "oob" (Invalid_argument "Mat.sub: out of bounds")
    (fun () -> ignore (Mat.sub a ~r0:3 ~c0:0 ~rows:2 ~cols:2))

let test_quad () =
  let s = Mat.create_space () in
  let a = Mat.alloc s ~rows:4 ~cols:4 in
  Mat.fill a (fun i j -> float_of_int ((10 * i) + j));
  let q11 = Mat.quad a 1 1 in
  Alcotest.(check (float 0.)) "quad 11 origin" 22. (Mat.get q11 0 0);
  let t = Mat.top a and b = Mat.bot a in
  Alcotest.(check (float 0.)) "top" 0. (Mat.get t 0 0);
  Alcotest.(check (float 0.)) "bot" 20. (Mat.get b 0 0);
  let odd = Mat.alloc s ~rows:3 ~cols:3 in
  Alcotest.check_raises "odd quad" (Invalid_argument "Mat.quad: odd dimensions")
    (fun () -> ignore (Mat.quad odd 0 0))

let test_copy_diff_snapshot () =
  let s = Mat.create_space () in
  let a = Mat.alloc s ~rows:3 ~cols:3 in
  Mat.fill a (fun i j -> float_of_int (i + j));
  let c = Mat.snapshot a in
  Alcotest.(check (float 0.)) "snapshot equal" 0. (Mat.max_abs_diff a c);
  Mat.set a 1 1 9.;
  Alcotest.(check (float 0.)) "diff detects" 7. (Mat.max_abs_diff a c);
  Alcotest.(check (float 0.)) "snapshot detached" 2. (Mat.get c 1 1);
  Mat.copy_contents ~src:c ~dst:a;
  Alcotest.(check (float 0.)) "copy back" 0. (Mat.max_abs_diff a c);
  (* lower-only diff ignores strict upper *)
  Mat.set a 0 2 99.;
  Alcotest.(check (float 0.)) "lower diff ignores upper" 0.
    (Mat.max_abs_diff_lower a c)

let test_region_footprint_disjoint () =
  let s = Mat.create_space () in
  let a = Mat.alloc s ~rows:4 ~cols:4 in
  let q00 = Mat.quad a 0 0 and q11 = Mat.quad a 1 1 in
  Alcotest.(check bool) "disjoint quads" false
    (not (Is.is_empty (Is.inter (Mat.region q00) (Mat.region q11))));
  Alcotest.(check int) "quad cardinal" 4 (Is.cardinal (Mat.region q00));
  Alcotest.(check bool) "quad inside parent" true
    (Is.equal (Mat.region q00) (Is.inter (Mat.region q00) (Mat.region a)))

(* Growth leaves the new capacity uninitialized, so [alloc] must zero
   what it hands out.  Stale floats are left in freed memory before each
   growth (on the minor heap for the small capacities, the major heap
   for the large ones) so a region that skipped zeroing would show them. *)
let test_growth_zeroes_and_keeps () =
  let s = Mat.create_space () in
  let dirty words =
    for _ = 1 to 64 do
      ignore (Sys.opaque_identity (Array.make words 7.))
    done;
    Gc.full_major ()
  in
  let expect k m f =
    for i = 0 to m.Mat.rows - 1 do
      for j = 0 to m.Mat.cols - 1 do
        if Mat.get m i j <> f i j then
          Alcotest.failf "matrix %d reads %g at (%d, %d), expected %g" k
            (Mat.get m i j) i j (f i j)
      done
    done
  in
  let contents k i j = float_of_int ((1000 * k) + (10 * i) + j + 1) in
  let mats =
    List.init 12 (fun k ->
        let rows = 1 + (k * k) and cols = 3 + k in
        dirty (rows * cols);
        let base = Mat.words s in
        let m = Mat.alloc s ~rows ~cols in
        Alcotest.(check int) "base is the previous word count" base m.Mat.base;
        expect k m (fun _ _ -> 0.);
        Mat.fill m (contents k);
        m)
  in
  List.iteri (fun k m -> expect k m (contents k)) mats

let () =
  Alcotest.run "nd_algos.mat"
    [
      ( "mat",
        [
          Alcotest.test_case "alloc" `Quick test_alloc;
          Alcotest.test_case "addr/region" `Quick test_addr_region;
          Alcotest.test_case "sub aliasing" `Quick test_sub_view_aliasing;
          Alcotest.test_case "quadrants" `Quick test_quad;
          Alcotest.test_case "copy/diff/snapshot" `Quick test_copy_diff_snapshot;
          Alcotest.test_case "regions disjoint" `Quick
            test_region_footprint_disjoint;
          Alcotest.test_case "growth zeroes new, keeps old" `Quick
            test_growth_zeroes_and_keeps;
        ] );
    ]
