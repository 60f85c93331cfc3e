module Is = Nd_util.Interval_set
open Nd

(* Scoring scheme (classic DNA defaults): match +1, mismatch -1, affine
   gap cost open + k*extend. *)
let match_score = 1.

let mismatch_score = -1.

let gap_open = 2.5

let gap_extend = 0.5

let neg_inf = -1e30

(* the footprint of rows [i0, i1) and columns [j0, j1) of [x] *)
let block_region x i0 i1 j0 j1 =
  Mat.region (Mat.sub x ~r0:i0 ~c0:j0 ~rows:(i1 - i0) ~cols:(j1 - j0))

(* one DP block over the three planes *)
let cell_update ~m ~e ~f ~s ~t i j =
  let sub =
    if Mat.get s 0 (i - 1) = Mat.get t 0 (j - 1) then match_score
    else mismatch_score
  in
  let best3 a b c = Float.max a (Float.max b c) in
  let ev =
    Float.max (Mat.get m i (j - 1) -. gap_open) (Mat.get e i (j - 1) -. gap_extend)
  in
  let fv =
    Float.max (Mat.get m (i - 1) j -. gap_open) (Mat.get f (i - 1) j -. gap_extend)
  in
  let mv =
    sub
    +. best3
         (Mat.get m (i - 1) (j - 1))
         (Mat.get e (i - 1) (j - 1))
         (Mat.get f (i - 1) (j - 1))
  in
  Mat.set e i j ev;
  Mat.set f i j fv;
  Mat.set m i j mv

let gotoh_leaf ~m ~e ~f ~s ~t i0 i1 j0 j1 =
  (* rows [r0, i1) and columns [c0, j1) of the three planes: a plane
     read (the block, the row above it and the column to its left) is
     one (b+1) x (b+1) block *)
  let planes r0 c0 =
    List.fold_left
      (fun acc x -> Is.union acc (block_region x r0 i1 c0 j1))
      Is.empty [ m; e; f ]
  in
  let reads =
    Is.union
      (planes (i0 - 1) (j0 - 1))
      (Is.union
         (block_region s 0 1 (i0 - 1) (i1 - 1))
         (block_region t 0 1 (j0 - 1) (j1 - 1)))
  in
  let writes = planes i0 j0 in
  let action () =
    for i = i0 to i1 - 1 do
      for j = j0 to j1 - 1 do
        cell_update ~m ~e ~f ~s ~t i j
      done
    done
  in
  Spawn_tree.leaf
    (Strand.make ~label:"gotoh"
       ~work:(3 * (i1 - i0) * (j1 - j0))
       ~reads ~writes ~action ())

(* identical quadrant composition to LCS: the three planes share the
   (i-1,j-1)/(i,j-1)/(i-1,j) dependency pattern *)
let gotoh_tree ~base ~m ~e ~f ~s ~t n =
  let rec go i0 j0 sz =
    if sz <= base then gotoh_leaf ~m ~e ~f ~s ~t i0 (i0 + sz) j0 (j0 + sz)
    else
      let h = sz / 2 in
      Spawn_tree.fire ~rule:"VH"
        (Spawn_tree.fire ~rule:"HV" (go i0 j0 h)
           (Spawn_tree.par [ go i0 (j0 + h) h; go (i0 + h) j0 h ]))
        (go (i0 + h) (j0 + h) h)
  in
  go 1 1 n

let init_boundaries ~m ~e ~f n =
  Mat.fill m (fun _ _ -> 0.);
  Mat.fill e (fun _ _ -> 0.);
  Mat.fill f (fun _ _ -> 0.);
  Mat.set m 0 0 0.;
  for j = 1 to n do
    Mat.set m 0 j neg_inf;
    Mat.set e 0 j (-.(gap_open +. (gap_extend *. float_of_int (j - 1))));
    Mat.set f 0 j neg_inf
  done;
  for i = 1 to n do
    Mat.set m i 0 neg_inf;
    Mat.set f i 0 (-.(gap_open +. (gap_extend *. float_of_int (i - 1))));
    Mat.set e i 0 neg_inf
  done

let workload ~n ~base ~seed () =
  Workload.validate_shape ~n ~base;
  let space = Mat.create_space () in
  let m = Mat.alloc space ~rows:(n + 1) ~cols:(n + 1) in
  let e = Mat.alloc space ~rows:(n + 1) ~cols:(n + 1) in
  let f = Mat.alloc space ~rows:(n + 1) ~cols:(n + 1) in
  let s = Mat.alloc space ~rows:1 ~cols:n in
  let t = Mat.alloc space ~rows:1 ~cols:n in
  let rspace = Mat.create_space () in
  let mr = Mat.alloc rspace ~rows:(n + 1) ~cols:(n + 1) in
  let er = Mat.alloc rspace ~rows:(n + 1) ~cols:(n + 1) in
  let fr = Mat.alloc rspace ~rows:(n + 1) ~cols:(n + 1) in
  let reset () =
    let rng = Nd_util.Prng.create seed in
    Mat.fill s (fun _ _ -> float_of_int (Nd_util.Prng.int rng 4));
    Mat.fill t (fun _ _ -> float_of_int (Nd_util.Prng.int rng 4));
    init_boundaries ~m ~e ~f n;
    init_boundaries ~m:mr ~e:er ~f:fr n;
    for i = 1 to n do
      for j = 1 to n do
        cell_update ~m:mr ~e:er ~f:fr ~s ~t i j
      done
    done
  in
  {
    Workload.name = "gotoh";
    n;
    base;
    tree = gotoh_tree ~base ~m ~e ~f ~s ~t n;
    registry = Rules.registry;
    reset;
    check =
      (fun () ->
        Float.max (Mat.max_abs_diff m mr)
          (Float.max (Mat.max_abs_diff e er) (Mat.max_abs_diff f fr)));
  }
