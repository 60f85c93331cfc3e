module Is = Nd_util.Interval_set
open Nd

(* Deterministic per-cell relaxation weight, so that the concrete update
   d(t,i) = min(d(t-1,i), d(t-1,t-1) + w(t,i)) is reproducible and
   order-insensitive. *)
let weight t i =
  let h = (t * 0x9E3779B1) lxor (i * 0x85EBCA77) in
  float_of_int (h land 0xFF) /. 16.

(* the footprint of rows [t0, t1) and columns [i0, i1) of [x] *)
let block_region x t0 t1 i0 i1 =
  Mat.region (Mat.sub x ~r0:t0 ~c0:i0 ~rows:(t1 - t0) ~cols:(i1 - i0))

(* the diagonal cells (t-1, t-1) that rows t in [max 1 t0, t1) read:
   one run at stride n + 1 *)
let diag_region x t0 t1 =
  let t0 = max 1 t0 in
  Is.strided
    ~lo:(Mat.addr x (t0 - 1) (t0 - 1))
    ~width:1 ~stride:(x.Mat.stride + 1) ~count:(t1 - t0)

let fw_leaf x ~kind t0 t1 i0 i1 =
  (* the block with the row above it, and the diagonal *)
  let reads =
    Is.union (block_region x (max 0 (t0 - 1)) t1 i0 i1) (diag_region x t0 t1)
  in
  let action () =
    for t = max 1 t0 to t1 - 1 do
      let d = Mat.get x (t - 1) (t - 1) in
      for i = i0 to i1 - 1 do
        let v = Float.min (Mat.get x (t - 1) i) (d +. weight t i) in
        Mat.set x t i v
      done
    done
  in
  let rows = t1 - max 1 t0 in
  Spawn_tree.leaf
    (Strand.make ~label:kind
       ~work:(max 1 (rows * (i1 - i0)))
       ~reads
       ~writes:(block_region x t0 t1 i0 i1)
       ~action ())

(* Eq. 14: task A on blocks containing their diagonal, task B elsewhere. *)
let fw_tree ?(abab_rule = "ABAB") ~base x =
  let rec a_tree lo hi =
    if hi - lo <= base then fw_leaf x ~kind:"fwA" lo hi lo hi
    else
      let mid = (lo + hi) / 2 in
      Spawn_tree.fire ~rule:abab_rule
        (Spawn_tree.fire ~rule:"AB" (a_tree lo mid) (b_tree (lo, mid) (mid, hi)))
        (Spawn_tree.fire ~rule:"AB" (a_tree mid hi) (b_tree (mid, hi) (lo, mid)))
  and b_tree (t0, t1) (i0, i1) =
    if t1 - t0 <= base then fw_leaf x ~kind:"fwB" t0 t1 i0 i1
    else
      let tm = (t0 + t1) / 2 and im = (i0 + i1) / 2 in
      Spawn_tree.fire ~rule:"BBBB"
        (Spawn_tree.par [ b_tree (t0, tm) (i0, im); b_tree (t0, tm) (im, i1) ])
        (Spawn_tree.par [ b_tree (tm, t1) (i0, im); b_tree (tm, t1) (im, i1) ])
  in
  a_tree 0 x.Mat.rows

let workload ?(variant = `Corrected) ~n ~base ~seed () =
  let abab_rule =
    match variant with `Corrected -> "ABAB" | `Literal -> "ABAB_literal"
  in
  Workload.validate_shape ~n ~base;
  let space = Mat.create_space () in
  let x = Mat.alloc space ~rows:n ~cols:n in
  let reference = Mat.alloc (Mat.create_space ()) ~rows:n ~cols:n in
  let reset () =
    let rng = Nd_util.Prng.create seed in
    Mat.fill x (fun _ _ -> 0.);
    for i = 0 to n - 1 do
      Mat.set x 0 i (Nd_util.Prng.float rng *. 8.)
    done;
    Mat.fill reference (fun _ _ -> 0.);
    for i = 0 to n - 1 do
      Mat.set reference 0 i (Mat.get x 0 i)
    done;
    for t = 1 to n - 1 do
      let d = Mat.get reference (t - 1) (t - 1) in
      for i = 0 to n - 1 do
        Mat.set reference t i
          (Float.min (Mat.get reference (t - 1) i) (d +. weight t i))
      done
    done
  in
  {
    Workload.name = "fw1d";
    n;
    base;
    tree = fw_tree ~abab_rule ~base x;
    registry = Rules.registry;
    reset;
    check = (fun () -> Mat.max_abs_diff x reference);
  }
