module Prng = Nd_util.Prng

(* Every loop reads and writes the space's float store directly
   ([Mat.data]), at [base + i·stride + j]: a float passed through
   [Mat.get] or [Mat.set], calls into another module, is boxed.  Each
   loop performs the same float operations in the same order as its
   [Mat.get]/[Mat.set] form, so results are bit-identical. *)

let row m i = m.Mat.base + (i * m.Mat.stride)

let mm_acc ~sign c a b =
  if a.Mat.cols <> b.Mat.rows || c.Mat.rows <> a.Mat.rows || c.Mat.cols <> b.Mat.cols
  then invalid_arg "Kernels.mm_acc: shape mismatch";
  let cd = Mat.data c and ad = Mat.data a and bd = Mat.data b in
  for i = 0 to c.Mat.rows - 1 do
    let ci = row c i and ai = row a i in
    for k = 0 to a.Mat.cols - 1 do
      let aik = sign *. ad.(ai + k) and bk = row b k in
      for j = 0 to c.Mat.cols - 1 do
        cd.(ci + j) <- cd.(ci + j) +. (aik *. bd.(bk + j))
      done
    done
  done

let mm_acc_nt ~sign c a b =
  if a.Mat.cols <> b.Mat.cols || c.Mat.rows <> a.Mat.rows || c.Mat.cols <> b.Mat.rows
  then invalid_arg "Kernels.mm_acc_nt: shape mismatch";
  let cd = Mat.data c and ad = Mat.data a and bd = Mat.data b in
  for i = 0 to c.Mat.rows - 1 do
    let ci = row c i and ai = row a i in
    for j = 0 to c.Mat.cols - 1 do
      let bj = row b j in
      let acc = ref 0. in
      for k = 0 to a.Mat.cols - 1 do
        acc := !acc +. (ad.(ai + k) *. bd.(bj + k))
      done;
      cd.(ci + j) <- cd.(ci + j) +. (sign *. !acc)
    done
  done

let trs_left t b =
  if t.Mat.rows <> t.Mat.cols || t.Mat.rows <> b.Mat.rows then
    invalid_arg "Kernels.trs_left: shape mismatch";
  let n = t.Mat.rows and td = Mat.data t and bd = Mat.data b in
  for j = 0 to b.Mat.cols - 1 do
    for i = 0 to n - 1 do
      let ti = row t i in
      let acc = ref bd.(row b i + j) in
      for k = 0 to i - 1 do
        acc := !acc -. (td.(ti + k) *. bd.(row b k + j))
      done;
      bd.(row b i + j) <- !acc /. td.(ti + i)
    done
  done

let trs_right t b =
  if t.Mat.rows <> t.Mat.cols || b.Mat.cols <> t.Mat.rows then
    invalid_arg "Kernels.trs_right: shape mismatch";
  let n = t.Mat.rows and td = Mat.data t and bd = Mat.data b in
  for i = 0 to b.Mat.rows - 1 do
    let bi = row b i in
    for j = 0 to n - 1 do
      let tj = row t j in
      let acc = ref bd.(bi + j) in
      for k = 0 to j - 1 do
        acc := !acc -. (bd.(bi + k) *. td.(tj + k))
      done;
      bd.(bi + j) <- !acc /. td.(tj + j)
    done
  done

let cholesky a =
  if a.Mat.rows <> a.Mat.cols then invalid_arg "Kernels.cholesky: not square";
  let n = a.Mat.rows and d = Mat.data a in
  for j = 0 to n - 1 do
    let aj = row a j in
    let djj = ref d.(aj + j) in
    for k = 0 to j - 1 do
      djj := !djj -. (d.(aj + k) *. d.(aj + k))
    done;
    if !djj <= 0. then failwith "Kernels.cholesky: non-positive pivot";
    let ljj = sqrt !djj in
    d.(aj + j) <- ljj;
    for i = j + 1 to n - 1 do
      let ai = row a i in
      let acc = ref d.(ai + j) in
      for k = 0 to j - 1 do
        acc := !acc -. (d.(ai + k) *. d.(aj + k))
      done;
      d.(ai + j) <- !acc /. ljj
    done
  done

let min_plus_acc c a b =
  if a.Mat.cols <> b.Mat.rows || c.Mat.rows <> a.Mat.rows || c.Mat.cols <> b.Mat.cols
  then invalid_arg "Kernels.min_plus_acc: shape mismatch";
  let cd = Mat.data c and ad = Mat.data a and bd = Mat.data b in
  for i = 0 to c.Mat.rows - 1 do
    let ci = row c i in
    for k = 0 to a.Mat.cols - 1 do
      let aik = ad.(row a i + k) and bk = row b k in
      for j = 0 to c.Mat.cols - 1 do
        let v = aik +. bd.(bk + j) in
        if v < cd.(ci + j) then cd.(ci + j) <- v
      done
    done
  done

let floyd_warshall a =
  if a.Mat.rows <> a.Mat.cols then
    invalid_arg "Kernels.floyd_warshall: not square";
  let n = a.Mat.rows and d = Mat.data a in
  for k = 0 to n - 1 do
    let ak = row a k in
    for i = 0 to n - 1 do
      let ai = row a i in
      let aik = d.(ai + k) in
      for j = 0 to n - 1 do
        let v = aik +. d.(ak + j) in
        if v < d.(ai + j) then d.(ai + j) <- v
      done
    done
  done

let fill_uniform m rng ~lo ~hi =
  Mat.fill m (fun _ _ -> lo +. (Prng.float rng *. (hi -. lo)))

let fill_lower_triangular m rng =
  Mat.fill m (fun i j ->
      if i = j then 2. +. Prng.float rng
      else if i > j then 1. +. Prng.float rng
      else 0.)

let fill_spd m rng =
  let n = m.Mat.rows in
  Mat.fill m (fun _ _ -> Prng.float rng);
  let d = Mat.data m in
  (* symmetrize and add a dominant diagonal *)
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      let v = (d.(row m i + j) +. d.(row m j + i)) /. 2. in
      d.(row m i + j) <- v;
      d.(row m j + i) <- v
    done
  done;
  for i = 0 to n - 1 do
    d.(row m i + i) <- d.(row m i + i) +. float_of_int n
  done

let fill_distances m rng =
  Mat.fill m (fun i j -> if i = j then 0. else 1. +. (9. *. Prng.float rng))

let trs_left_unit t b =
  if t.Mat.rows <> t.Mat.cols || t.Mat.rows <> b.Mat.rows then
    invalid_arg "Kernels.trs_left_unit: shape mismatch";
  let n = t.Mat.rows and td = Mat.data t and bd = Mat.data b in
  for j = 0 to b.Mat.cols - 1 do
    for i = 0 to n - 1 do
      let ti = row t i in
      let acc = ref bd.(row b i + j) in
      for k = 0 to i - 1 do
        acc := !acc -. (td.(ti + k) *. bd.(row b k + j))
      done;
      bd.(row b i + j) <- !acc
    done
  done

let swap_rows m i j =
  if i <> j then begin
    let d = Mat.data m and mi = row m i and mj = row m j in
    for c = 0 to m.Mat.cols - 1 do
      let tmp = d.(mi + c) in
      d.(mi + c) <- d.(mj + c);
      d.(mj + c) <- tmp
    done
  end

let lu_panel a ~piv ~c0 ~r0 =
  let rows = a.Mat.rows and m = a.Mat.cols and d = Mat.data a in
  for j = 0 to m - 1 do
    (* pivot search over rows >= j of the panel view *)
    let best = ref j and best_v = ref (Float.abs d.(row a j + j)) in
    for i = j + 1 to rows - 1 do
      let v = Float.abs d.(row a i + j) in
      if v > !best_v then begin
        best := i;
        best_v := v
      end
    done;
    (Mat.data piv).(row piv 0 + c0 + j) <- float_of_int (r0 + !best);
    swap_rows a j !best;
    let aj = row a j in
    let djj = d.(aj + j) in
    for i = j + 1 to rows - 1 do
      let ai = row a i in
      let lij = d.(ai + j) /. djj in
      d.(ai + j) <- lij;
      for k = j + 1 to m - 1 do
        d.(ai + k) <- d.(ai + k) -. (lij *. d.(aj + k))
      done
    done
  done

let laswp b ~piv ~k0 ~k1 ~g ~reverse =
  let apply j =
    let p = int_of_float (Mat.data piv).(row piv 0 + j) in
    swap_rows b (j - g) (p - g)
  in
  if reverse then
    for j = k1 - 1 downto k0 do
      apply j
    done
  else
    for j = k0 to k1 - 1 do
      apply j
    done

let lu_inplace a ~piv =
  if a.Mat.rows <> a.Mat.cols then invalid_arg "Kernels.lu_inplace: not square";
  lu_panel a ~piv ~c0:0 ~r0:0

let fwb_block x u =
  if u.Mat.rows <> u.Mat.cols || u.Mat.rows <> x.Mat.rows then
    invalid_arg "Kernels.fwb_block: shape mismatch";
  let xd = Mat.data x and ud = Mat.data u in
  for k = 0 to u.Mat.rows - 1 do
    let xk = row x k in
    for i = 0 to x.Mat.rows - 1 do
      let xi = row x i in
      let uik = ud.(row u i + k) in
      for j = 0 to x.Mat.cols - 1 do
        let v = uik +. xd.(xk + j) in
        if v < xd.(xi + j) then xd.(xi + j) <- v
      done
    done
  done

let fwc_block x u =
  if u.Mat.rows <> u.Mat.cols || u.Mat.rows <> x.Mat.cols then
    invalid_arg "Kernels.fwc_block: shape mismatch";
  let xd = Mat.data x and ud = Mat.data u in
  for k = 0 to u.Mat.rows - 1 do
    let uk = row u k in
    for i = 0 to x.Mat.rows - 1 do
      let xi = row x i in
      let xik = xd.(xi + k) in
      for j = 0 to x.Mat.cols - 1 do
        let v = xik +. ud.(uk + j) in
        if v < xd.(xi + j) then xd.(xi + j) <- v
      done
    done
  done

let trs_left_trans t b =
  if t.Mat.rows <> t.Mat.cols || t.Mat.rows <> b.Mat.rows then
    invalid_arg "Kernels.trs_left_trans: shape mismatch";
  let n = t.Mat.rows and td = Mat.data t and bd = Mat.data b in
  for j = 0 to b.Mat.cols - 1 do
    for i = n - 1 downto 0 do
      let acc = ref bd.(row b i + j) in
      for k = i + 1 to n - 1 do
        acc := !acc -. (td.(row t k + i) *. bd.(row b k + j))
      done;
      bd.(row b i + j) <- !acc /. td.(row t i + i)
    done
  done
