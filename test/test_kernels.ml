module Prng = Nd_util.Prng
open Nd_algos

let mk n f =
  let s = Mat.create_space () in
  let m = Mat.alloc s ~rows:n ~cols:n in
  Mat.fill m f;
  m

let tol = 1e-9

let test_mm_acc () =
  (* [[1 2][3 4]] * [[5 6][7 8]] = [[19 22][43 50]] *)
  let a = mk 2 (fun i j -> float_of_int ((2 * i) + j + 1)) in
  let b = mk 2 (fun i j -> float_of_int ((2 * i) + j + 5)) in
  let c = mk 2 (fun _ _ -> 1.) in
  Kernels.mm_acc ~sign:1. c a b;
  Alcotest.(check (float tol)) "c00" 20. (Mat.get c 0 0);
  Alcotest.(check (float tol)) "c01" 23. (Mat.get c 0 1);
  Alcotest.(check (float tol)) "c10" 44. (Mat.get c 1 0);
  Alcotest.(check (float tol)) "c11" 51. (Mat.get c 1 1);
  Kernels.mm_acc ~sign:(-1.) c a b;
  Alcotest.(check (float tol)) "subtract back" 1. (Mat.get c 1 1)

let test_mm_acc_nt () =
  let rng = Prng.create 5 in
  let a = mk 4 (fun _ _ -> Prng.float rng) in
  let b = mk 4 (fun _ _ -> Prng.float rng) in
  let c1 = mk 4 (fun _ _ -> 0.) and c2 = mk 4 (fun _ _ -> 0.) in
  Kernels.mm_acc_nt ~sign:1. c1 a b;
  (* compare against explicit transpose *)
  let bt = mk 4 (fun i j -> Mat.get b j i) in
  Kernels.mm_acc ~sign:1. c2 a bt;
  Alcotest.(check (float tol)) "nt = n * transpose" 0. (Mat.max_abs_diff c1 c2)

let test_trs_left () =
  let rng = Prng.create 7 in
  let n = 8 in
  let t = mk n (fun _ _ -> 0.) in
  Kernels.fill_lower_triangular t rng;
  let b = mk n (fun _ _ -> Prng.float rng) in
  let b0 = Mat.snapshot b in
  Kernels.trs_left t b;
  (* residual: T * X - B0 = 0 *)
  let r = mk n (fun _ _ -> 0.) in
  Kernels.mm_acc ~sign:1. r t b;
  let worst = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let d = Float.abs (Mat.get r i j -. Mat.get b0 i j) in
      if d > !worst then worst := d
    done
  done;
  Alcotest.(check (float 1e-9)) "residual" 0. !worst

let test_trs_right () =
  let rng = Prng.create 8 in
  let n = 8 in
  let t = mk n (fun _ _ -> 0.) in
  Kernels.fill_lower_triangular t rng;
  let b = mk n (fun _ _ -> Prng.float rng) in
  let b0 = Mat.snapshot b in
  Kernels.trs_right t b;
  (* residual: X * T^T = B0 *)
  let r = mk n (fun _ _ -> 0.) in
  Kernels.mm_acc_nt ~sign:1. r b t;
  Alcotest.(check (float 1e-9)) "residual" 0. (Mat.max_abs_diff r b0)

let test_trs_left_unit () =
  let rng = Prng.create 9 in
  let n = 8 in
  let t = mk n (fun _ _ -> 0.) in
  Kernels.fill_lower_triangular t rng;
  let b = mk n (fun _ _ -> Prng.float rng) in
  let b0 = Mat.snapshot b in
  Kernels.trs_left_unit t b;
  (* residual with unit-diagonal T *)
  let tu = mk n (fun i j -> if i = j then 1. else if i > j then Mat.get t i j else 0.) in
  let r = mk n (fun _ _ -> 0.) in
  Kernels.mm_acc ~sign:1. r tu b;
  Alcotest.(check (float 1e-9)) "residual" 0. (Mat.max_abs_diff r b0)

let test_cholesky () =
  let rng = Prng.create 10 in
  let n = 8 in
  let a = mk n (fun _ _ -> 0.) in
  Kernels.fill_spd a rng;
  let a0 = Mat.snapshot a in
  Kernels.cholesky a;
  (* zero the upper triangle to get L, then check L L^T = A0 *)
  let l = mk n (fun i j -> if j <= i then Mat.get a i j else 0.) in
  let r = mk n (fun _ _ -> 0.) in
  Kernels.mm_acc_nt ~sign:1. r l l;
  Alcotest.(check (float 1e-8)) "L L^T = A" 0. (Mat.max_abs_diff r a0)

let test_cholesky_rejects () =
  let a = mk 2 (fun i j -> if i = j then -1. else 0.) in
  Alcotest.check_raises "negative definite"
    (Failure "Kernels.cholesky: non-positive pivot") (fun () -> Kernels.cholesky a)

let test_floyd_warshall () =
  (* 0 -> 1 (1), 1 -> 2 (1), 0 -> 2 (5): shortest 0->2 is 2 *)
  let inf = 1e9 in
  let a =
    mk 3 (fun i j ->
        if i = j then 0.
        else if i = 0 && j = 1 then 1.
        else if i = 1 && j = 2 then 1.
        else if i = 0 && j = 2 then 5.
        else inf)
  in
  Kernels.floyd_warshall a;
  Alcotest.(check (float 0.)) "0->2 via 1" 2. (Mat.get a 0 2);
  Alcotest.(check (float 0.)) "diag zero" 0. (Mat.get a 1 1)

let test_min_plus_acc_matches_fw_step () =
  let rng = Prng.create 12 in
  let a = mk 4 (fun _ _ -> 1. +. Prng.float rng) in
  let c = Mat.snapshot a in
  (* c = min(c, a (x) a) must never increase entries *)
  Kernels.min_plus_acc c a a;
  for i = 0 to 3 do
    for j = 0 to 3 do
      if Mat.get c i j > Mat.get a i j +. 1e-12 then Alcotest.fail "increased"
    done
  done

let test_lu_inplace () =
  let rng = Prng.create 13 in
  let n = 8 in
  let s = Mat.create_space () in
  let a = Mat.alloc s ~rows:n ~cols:n in
  Kernels.fill_uniform a rng ~lo:(-1.) ~hi:1.;
  let a0 = Mat.snapshot a in
  let piv = Mat.alloc s ~rows:1 ~cols:n in
  Kernels.lu_inplace a ~piv;
  (* reconstruct: P*A0 = L*U *)
  let l = mk n (fun i j -> if i > j then Mat.get a i j else if i = j then 1. else 0.) in
  let u = mk n (fun i j -> if i <= j then Mat.get a i j else 0.) in
  let lu = mk n (fun _ _ -> 0.) in
  Kernels.mm_acc ~sign:1. lu l u;
  (* apply recorded pivots to A0 *)
  Kernels.laswp a0 ~piv ~k0:0 ~k1:n ~g:0 ~reverse:false;
  Alcotest.(check (float 1e-9)) "P A = L U" 0. (Mat.max_abs_diff lu a0)

let test_laswp_roundtrip () =
  let rng = Prng.create 14 in
  let n = 8 in
  let s = Mat.create_space () in
  let b = Mat.alloc s ~rows:n ~cols:3 in
  Kernels.fill_uniform b rng ~lo:0. ~hi:1.;
  let b0 = Mat.snapshot b in
  let piv = Mat.alloc s ~rows:1 ~cols:n in
  for j = 0 to n - 1 do
    Mat.set piv 0 j (float_of_int (j + Prng.int rng (n - j)))
  done;
  Kernels.laswp b ~piv ~k0:0 ~k1:n ~g:0 ~reverse:false;
  Kernels.laswp b ~piv ~k0:0 ~k1:n ~g:0 ~reverse:true;
  Alcotest.(check (float 0.)) "roundtrip" 0. (Mat.max_abs_diff b b0)

let test_fw_blocks () =
  (* fwb/fwc applied to the full matrix with u = x must match one
     Floyd-Warshall sweep *)
  let rng = Prng.create 15 in
  let n = 8 in
  let x = mk n (fun _ _ -> 0.) in
  Kernels.fill_distances x rng;
  let y = Mat.snapshot x in
  Kernels.fwb_block x x;
  Kernels.floyd_warshall y;
  Alcotest.(check (float 1e-12)) "fwb full sweep = FW" 0. (Mat.max_abs_diff x y);
  let z = mk n (fun _ _ -> 0.) in
  Kernels.fill_distances z (Prng.create 15);
  Kernels.fwc_block z z;
  Alcotest.(check (float 1e-12)) "fwc full sweep = FW" 0. (Mat.max_abs_diff z y)

(* The kernels read and write the float store directly; here each is
   checked bit for bit against its [Mat.get]/[Mat.set] form, on random
   strided sub-views of one 24x24 matrix. *)
module type KERNELS = sig
  val mm_acc : sign:float -> Mat.t -> Mat.t -> Mat.t -> unit
  val mm_acc_nt : sign:float -> Mat.t -> Mat.t -> Mat.t -> unit
  val trs_left : Mat.t -> Mat.t -> unit
  val trs_right : Mat.t -> Mat.t -> unit
  val trs_left_unit : Mat.t -> Mat.t -> unit
  val trs_left_trans : Mat.t -> Mat.t -> unit
  val cholesky : Mat.t -> unit
  val min_plus_acc : Mat.t -> Mat.t -> Mat.t -> unit
  val floyd_warshall : Mat.t -> unit
  val fwb_block : Mat.t -> Mat.t -> unit
  val fwc_block : Mat.t -> Mat.t -> unit
  val fill_spd : Mat.t -> Prng.t -> unit
  val lu_panel : Mat.t -> piv:Mat.t -> c0:int -> r0:int -> unit
  val laswp : Mat.t -> piv:Mat.t -> k0:int -> k1:int -> g:int -> reverse:bool -> unit
end

module Get_set : KERNELS = struct
  let get = Mat.get and set = Mat.set

  let mm_acc ~sign c a b =
    for i = 0 to c.Mat.rows - 1 do
      for k = 0 to a.Mat.cols - 1 do
        let aik = sign *. get a i k in
        for j = 0 to c.Mat.cols - 1 do
          set c i j (get c i j +. (aik *. get b k j))
        done
      done
    done

  let mm_acc_nt ~sign c a b =
    for i = 0 to c.Mat.rows - 1 do
      for j = 0 to c.Mat.cols - 1 do
        let acc = ref 0. in
        for k = 0 to a.Mat.cols - 1 do
          acc := !acc +. (get a i k *. get b j k)
        done;
        set c i j (get c i j +. (sign *. !acc))
      done
    done

  let trs ~unit ~trans t b =
    let n = t.Mat.rows in
    for j = 0 to b.Mat.cols - 1 do
      for step = 0 to n - 1 do
        let i = if trans then n - 1 - step else step in
        let acc = ref (get b i j) in
        if trans then
          for k = i + 1 to n - 1 do
            acc := !acc -. (get t k i *. get b k j)
          done
        else
          for k = 0 to i - 1 do
            acc := !acc -. (get t i k *. get b k j)
          done;
        set b i j (if unit then !acc else !acc /. get t i i)
      done
    done

  let trs_left = trs ~unit:false ~trans:false
  let trs_left_unit = trs ~unit:true ~trans:false
  let trs_left_trans = trs ~unit:false ~trans:true

  let trs_right t b =
    for i = 0 to b.Mat.rows - 1 do
      for j = 0 to t.Mat.rows - 1 do
        let acc = ref (get b i j) in
        for k = 0 to j - 1 do
          acc := !acc -. (get b i k *. get t j k)
        done;
        set b i j (!acc /. get t j j)
      done
    done

  let cholesky a =
    for j = 0 to a.Mat.rows - 1 do
      let d = ref (get a j j) in
      for k = 0 to j - 1 do
        d := !d -. (get a j k *. get a j k)
      done;
      if !d <= 0. then failwith "non-positive pivot";
      let ljj = sqrt !d in
      set a j j ljj;
      for i = j + 1 to a.Mat.rows - 1 do
        let acc = ref (get a i j) in
        for k = 0 to j - 1 do
          acc := !acc -. (get a i k *. get a j k)
        done;
        set a i j (!acc /. ljj)
      done
    done

  (* [x(i,j) <- min(x(i,j), p(i,k) + q(k,j))] for each k, i, j in order,
     [p(i,k)] read once per (k, i) *)
  let relax ~k_outer x p q kn =
    let step k i =
      let pik = get p i k in
      for j = 0 to x.Mat.cols - 1 do
        let v = pik +. get q k j in
        if v < get x i j then set x i j v
      done
    in
    if k_outer then
      for k = 0 to kn - 1 do
        for i = 0 to x.Mat.rows - 1 do step k i done
      done
    else
      for i = 0 to x.Mat.rows - 1 do
        for k = 0 to kn - 1 do step k i done
      done

  let min_plus_acc c a b = relax ~k_outer:false c a b a.Mat.cols
  let floyd_warshall a = relax ~k_outer:true a a a a.Mat.rows
  let fwb_block x u = relax ~k_outer:true x u x u.Mat.rows
  let fwc_block x u = relax ~k_outer:true x x u u.Mat.rows

  let fill_spd m rng =
    let n = m.Mat.rows in
    Mat.fill m (fun _ _ -> Prng.float rng);
    for i = 0 to n - 1 do
      for j = 0 to i - 1 do
        let v = (get m i j +. get m j i) /. 2. in
        set m i j v;
        set m j i v
      done
    done;
    for i = 0 to n - 1 do
      set m i i (get m i i +. float_of_int n)
    done

  let swap_rows m i j =
    if i <> j then
      for c = 0 to m.Mat.cols - 1 do
        let tmp = get m i c in
        set m i c (get m j c);
        set m j c tmp
      done

  let lu_panel a ~piv ~c0 ~r0 =
    for j = 0 to a.Mat.cols - 1 do
      let best = ref j and best_v = ref (Float.abs (get a j j)) in
      for i = j + 1 to a.Mat.rows - 1 do
        let v = Float.abs (get a i j) in
        if v > !best_v then begin
          best := i;
          best_v := v
        end
      done;
      set piv 0 (c0 + j) (float_of_int (r0 + !best));
      swap_rows a j !best;
      let d = get a j j in
      for i = j + 1 to a.Mat.rows - 1 do
        let lij = get a i j /. d in
        set a i j lij;
        for k = j + 1 to a.Mat.cols - 1 do
          set a i k (get a i k -. (lij *. get a j k))
        done
      done
    done

  let laswp b ~piv ~k0 ~k1 ~g ~reverse =
    let apply j = swap_rows b (j - g) (int_of_float (get piv 0 j) - g) in
    if reverse then
      for j = k1 - 1 downto k0 do apply j done
    else
      for j = k0 to k1 - 1 do apply j done
end

(* One case draws its view shapes and places from [rng], prepares their
   contents with [Mat.get]/[Mat.set] and runs one kernel of [K]; the
   same draws give the same views in both runs. *)
let bitwise_cases : (string * ((module KERNELS) -> Prng.t -> Mat.t -> Mat.t -> unit)) list =
  let view rng m rows cols =
    Mat.sub m ~r0:(Prng.int rng (m.Mat.rows - rows + 1))
      ~c0:(Prng.int rng (m.Mat.cols - cols + 1)) ~rows ~cols
  in
  let dim rng = 1 + Prng.int rng 8 in
  (* a lower triangle with a dominant diagonal *)
  let dominant t =
    for i = 0 to t.Mat.rows - 1 do
      Mat.set t i i (Mat.get t i i +. 2.)
    done
  in
  [
    ("mm_acc", fun (module K) rng m _ ->
        let r = dim rng and k = dim rng and c = dim rng in
        K.mm_acc ~sign:(-1.) (view rng m r c) (view rng m r k) (view rng m k c));
    ("mm_acc_nt", fun (module K) rng m _ ->
        let r = dim rng and k = dim rng and c = dim rng in
        K.mm_acc_nt ~sign:1. (view rng m r c) (view rng m r k) (view rng m c k));
    ("trs_left", fun (module K) rng m _ ->
        let n = dim rng in
        let t = view rng m n n in
        dominant t;
        K.trs_left t (view rng m n (dim rng)));
    ("trs_left_unit", fun (module K) rng m _ ->
        let n = dim rng in
        K.trs_left_unit (view rng m n n) (view rng m n (dim rng)));
    ("trs_left_trans", fun (module K) rng m _ ->
        let n = dim rng in
        let t = view rng m n n in
        dominant t;
        K.trs_left_trans t (view rng m n (dim rng)));
    ("trs_right", fun (module K) rng m _ ->
        let n = dim rng in
        let t = view rng m n n in
        dominant t;
        K.trs_right t (view rng m (dim rng) n));
    ("fill_spd + cholesky", fun (module K) rng m _ ->
        let a = view rng m (dim rng) 8 in
        let a = Mat.sub a ~r0:0 ~c0:0 ~rows:a.Mat.rows ~cols:a.Mat.rows in
        K.fill_spd a rng;
        K.cholesky a);
    ("min_plus_acc", fun (module K) rng m _ ->
        let r = dim rng and k = dim rng and c = dim rng in
        K.min_plus_acc (view rng m r c) (view rng m r k) (view rng m k c));
    ("floyd_warshall", fun (module K) rng m _ ->
        let n = dim rng in
        K.floyd_warshall (view rng m n n));
    ("fwb_block", fun (module K) rng m _ ->
        let n = dim rng in
        K.fwb_block (view rng m n (dim rng)) (view rng m n n));
    ("fwc_block", fun (module K) rng m _ ->
        let n = dim rng in
        K.fwc_block (view rng m (dim rng) n) (view rng m n n));
    ("lu_panel + laswp", fun (module K) rng m piv ->
        let c = dim rng in
        let a = view rng m (c + Prng.int rng 8) c in
        (* the panel's first column and top row share a global index *)
        let c0 = Prng.int rng 8 in
        K.lu_panel a ~piv ~c0 ~r0:c0;
        let b = view rng m a.Mat.rows (dim rng) in
        K.laswp b ~piv ~k0:c0 ~k1:(c0 + c) ~g:c0 ~reverse:(Prng.bool rng));
  ]

let test_bitwise (name, case) () =
  let run (k : (module KERNELS)) seed =
    let space = Mat.create_space () in
    let m = Mat.alloc space ~rows:24 ~cols:24 in
    let piv = Mat.alloc space ~rows:1 ~cols:24 in
    let rng = Prng.create seed in
    Mat.fill m (fun _ _ -> 0.5 +. Prng.float rng);
    case k rng m piv;
    List.concat_map
      (fun x ->
        List.init (x.Mat.rows * x.Mat.cols) (fun c ->
            Int64.bits_of_float (Mat.get x (c / x.Mat.cols) (c mod x.Mat.cols))))
      [ m; piv ]
  in
  for seed = 1 to 50 do
    if run (module Kernels : KERNELS) seed <> run (module Get_set) seed then
      Alcotest.failf "%s, seed %d: differs from its Mat.get/Mat.set form" name seed
  done

let () =
  Alcotest.run "nd_algos.kernels"
    [
      ( "dense",
        [
          Alcotest.test_case "mm_acc" `Quick test_mm_acc;
          Alcotest.test_case "mm_acc_nt" `Quick test_mm_acc_nt;
          Alcotest.test_case "trs_left" `Quick test_trs_left;
          Alcotest.test_case "trs_right" `Quick test_trs_right;
          Alcotest.test_case "trs_left_unit" `Quick test_trs_left_unit;
          Alcotest.test_case "cholesky" `Quick test_cholesky;
          Alcotest.test_case "cholesky rejects" `Quick test_cholesky_rejects;
          Alcotest.test_case "lu_inplace PA=LU" `Quick test_lu_inplace;
          Alcotest.test_case "laswp roundtrip" `Quick test_laswp_roundtrip;
        ] );
      ( "semiring",
        [
          Alcotest.test_case "floyd_warshall" `Quick test_floyd_warshall;
          Alcotest.test_case "min_plus_acc" `Quick test_min_plus_acc_matches_fw_step;
          Alcotest.test_case "fwb/fwc blocks" `Quick test_fw_blocks;
        ] );
      ( "bitwise",
        List.map
          (fun ((name, _) as case) -> Alcotest.test_case name `Quick (test_bitwise case))
          bitwise_cases );
    ]
