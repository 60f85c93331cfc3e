module Is = Nd_util.Interval_set
open Nd

(* The DP table is an (n+1) x (n+1) matrix with row 0 and column 0 fixed
   at zero; the recursion runs over the inner n x n region.  The two
   sequences are 1 x n matrices in the same space so that strand
   footprints cover them. *)

(* the footprint of rows [i0, i1) and columns [j0, j1) of [x] *)
let block_region x i0 i1 j0 j1 =
  Mat.region (Mat.sub x ~r0:i0 ~c0:j0 ~rows:(i1 - i0) ~cols:(j1 - j0))

let lcs_leaf x s t i0 i1 j0 j1 =
  let reads =
    List.fold_left Is.union Is.empty
      [
        block_region x i0 i1 j0 j1;
        block_region x (i0 - 1) i0 (j0 - 1) j1;
        block_region x (i0 - 1) i1 (j0 - 1) j0;
        block_region s 0 1 (i0 - 1) (i1 - 1);
        block_region t 0 1 (j0 - 1) (j1 - 1);
      ]
  in
  let writes = block_region x i0 i1 j0 j1 in
  (* reads the float store directly, as the kernels do *)
  let action () =
    let xd = Mat.data x and sd = Mat.data s and td = Mat.data t in
    for i = i0 to i1 - 1 do
      let xi = Mat.addr x i 0 and up = Mat.addr x (i - 1) 0 in
      let si = sd.(Mat.addr s 0 (i - 1)) and t0 = Mat.addr t 0 (-1) in
      for j = j0 to j1 - 1 do
        xd.(xi + j) <-
          (if si = td.(t0 + j) then xd.(up + j - 1) +. 1.
           else Float.max xd.(xi + j - 1) xd.(up + j))
      done
    done
  in
  Spawn_tree.leaf
    (Strand.make ~label:"lcs" ~work:((i1 - i0) * (j1 - j0)) ~reads ~writes
       ~action ())

let lcs_tree ?(vh_rule = "VH") ~base x s t =
  let rec go i0 j0 m =
    if m <= base then lcs_leaf x s t i0 (i0 + m) j0 (j0 + m)
    else
      let h = m / 2 in
      Spawn_tree.fire ~rule:vh_rule
        (Spawn_tree.fire ~rule:"HV" (go i0 j0 h)
           (Spawn_tree.par [ go i0 (j0 + h) h; go (i0 + h) j0 h ]))
        (go (i0 + h) (j0 + h) h)
  in
  go 1 1 (x.Mat.rows - 1)

(* The reference answer is recomputed at check time, one row at a
   time, and each row of [x] is compared as it comes: the workload
   holds O(n) words of reference, not an (n+1)^2 table.  [check] draws
   the sequences again from [seed] rather than reading [s] and [t],
   which a faulty run may have overwritten, and compares those cells
   too. *)
let workload_with_operands ?(variant = `Corrected) ~n ~base ~seed () =
  let vh_rule = match variant with `Corrected -> "VH" | `Literal -> "VH_literal" in
  Workload.validate_shape ~n ~base;
  let space = Mat.create_space ~words:(((n + 1) * (n + 1)) + (2 * n)) () in
  let x = Mat.alloc space ~rows:(n + 1) ~cols:(n + 1) in
  let s = Mat.alloc space ~rows:1 ~cols:n in
  let t = Mat.alloc space ~rows:1 ~cols:n in
  let sequences () =
    let rng = Nd_util.Prng.create seed in
    let draw () = Array.init n (fun _ -> float_of_int (Nd_util.Prng.int rng 4)) in
    let s0 = draw () in
    (s0, draw ())
  in
  let reset () =
    let s0, t0 = sequences () in
    Mat.fill s (fun _ j -> s0.(j));
    Mat.fill t (fun _ j -> t0.(j));
    Mat.fill x (fun _ _ -> 0.)
  in
  let check () =
    let s0, t0 = sequences () in
    let worst = ref 0. in
    let see got want =
      let d = Mat.deviation got want in
      if d > !worst then worst := d
    in
    for j = 0 to n - 1 do
      see (Mat.get s 0 j) s0.(j);
      see (Mat.get t 0 j) t0.(j)
    done;
    (* the reference's row i, written over its row i-1 from the left;
       [diag] keeps the cell (i-1, j-1) the write overwrote *)
    let row = Array.make (n + 1) 0. in
    for j = 0 to n do
      see (Mat.get x 0 j) 0.
    done;
    for i = 1 to n do
      see (Mat.get x i 0) 0.;
      let diag = ref 0. in
      for j = 1 to n do
        let up = row.(j) in
        let v = if s0.(i - 1) = t0.(j - 1) then !diag +. 1. else Float.max row.(j - 1) up in
        diag := up;
        row.(j) <- v;
        see (Mat.get x i j) v
      done
    done;
    !worst
  in
  ( {
      Workload.name = "lcs";
      n;
      base;
      tree = lcs_tree ~vh_rule ~base x s t;
      registry = Rules.registry;
      reset;
      check;
    },
    x,
    s,
    t )

let workload ?variant ~n ~base ~seed () =
  let w, _, _, _ = workload_with_operands ?variant ~n ~base ~seed () in
  w
