module Is = Nd_util.Interval_set
open Nd

let piv_region piv k0 k1 =
  if k1 <= k0 then Is.empty
  else Is.interval (Mat.addr piv 0 k0) (Mat.addr piv 0 k0 + (k1 - k0))

(* Parallel panel factorization: per column, a parallel block-argmax
   reduction, one combine-and-swap strand, then parallel block-row
   eliminations.  This is what the paper's O(m log n) LU span presumes
   (a panel run as one strand would give a Theta(n^2) pivot chain). *)
let parallel_panel view piv ~c0 ~r0 ~chunk ~scratch =
  let rows = view.Mat.rows and m = view.Mat.cols in
  let col_region j i0 i1 =
    Mat.region (Mat.sub view ~r0:i0 ~c0:j ~rows:(i1 - i0) ~cols:1)
  in
  let blocks_from i0 =
    let rec go lo acc =
      if lo >= rows then List.rev acc
      else
        let hi = min rows (lo + chunk) in
        go hi ((lo, hi) :: acc)
    in
    go i0 []
  in
  let scratch_cell b = Is.interval (Mat.addr scratch 0 (2 * b)) (Mat.addr scratch 0 (2 * b) + 2) in
  let stage j =
    let blocks = blocks_from j in
    let nblocks = List.length blocks in
    let locals =
      List.mapi
        (fun b (lo, hi) ->
          Spawn_tree.leaf
            (Strand.make ~label:"lu.argmax" ~work:(hi - lo)
               ~reads:(col_region j lo hi) ~writes:(scratch_cell b)
               ~action:(fun () ->
                 let best = ref lo and best_v = ref (-1.) in
                 for i = lo to hi - 1 do
                   let v = Float.abs (Mat.get view i j) in
                   if v > !best_v then begin
                     best := i;
                     best_v := v
                   end
                 done;
                 Mat.set scratch 0 (2 * b) !best_v;
                 Mat.set scratch 0 ((2 * b) + 1) (float_of_int !best))
               ()))
        blocks
    in
    let scratch_all =
      Is.interval (Mat.addr scratch 0 0) (Mat.addr scratch 0 0 + (2 * nblocks))
    in
    let combine =
      (* the two swapped rows are data-dependent: footprint is the whole
         panel (conservative; stages are serial anyway) *)
      let fp =
        Is.union (Mat.region view)
          (Is.union scratch_all (piv_region piv (c0 + j) (c0 + j + 1)))
      in
      Spawn_tree.leaf
        (Strand.make ~label:"lu.pivswap"
           ~work:(nblocks + (2 * m))
           ~reads:fp ~writes:fp
           ~action:(fun () ->
             let best = ref j and best_v = ref (-1.) in
             for b = 0 to nblocks - 1 do
               let v = Mat.get scratch 0 (2 * b) in
               if v > !best_v then begin
                 best_v := v;
                 best := int_of_float (Mat.get scratch 0 ((2 * b) + 1))
               end
             done;
             Mat.set piv 0 (c0 + j) (float_of_int (r0 + !best));
             if !best <> j then
               for c = 0 to m - 1 do
                 let tmp = Mat.get view j c in
                 Mat.set view j c (Mat.get view !best c);
                 Mat.set view !best c tmp
               done)
           ())
    in
    let pivot_row = Mat.sub view ~r0:j ~c0:j ~rows:1 ~cols:(m - j) in
    let elims =
      List.filter_map
        (fun (lo, hi) ->
          let lo = max lo (j + 1) in
          if lo >= hi then None
          else
            let blk = Mat.sub view ~r0:lo ~c0:j ~rows:(hi - lo) ~cols:(m - j) in
            Some
              (Spawn_tree.leaf
                 (Strand.make ~label:"lu.elim"
                    ~work:((hi - lo) * (m - j))
                    ~reads:(Is.union (Mat.region blk) (Mat.region pivot_row))
                    ~writes:(Mat.region blk)
                    ~action:(fun () ->
                      let d = Mat.get view j j in
                      for i = lo to hi - 1 do
                        let lij = Mat.get view i j /. d in
                        Mat.set view i j lij;
                        for k = j + 1 to m - 1 do
                          Mat.set view i k
                            (Mat.get view i k -. (lij *. Mat.get view j k))
                        done
                      done)
                    ())))
        blocks
    in
    let parts =
      [ Spawn_tree.par locals; combine ]
      @ (if elims = [] then [] else [ Spawn_tree.par elims ])
    in
    Spawn_tree.seq parts
  in
  Spawn_tree.seq (List.init m stage)

let laswp_leaf block piv ~k0 ~k1 ~g =
  let reads = Is.union (Mat.region block) (piv_region piv k0 k1) in
  Spawn_tree.leaf
    (Strand.make ~label:"laswp"
       ~work:(max 1 ((k1 - k0) * block.Mat.cols))
       ~reads ~writes:(Mat.region block)
       ~action:(fun () -> Kernels.laswp block ~piv ~k0 ~k1 ~g ~reverse:false)
       ())

(* row interchanges act on each column independently: parallelize over
   column chunks *)
let laswp_tree ?(chunk = 8) block piv ~k0 ~k1 ~g =
  let cols = block.Mat.cols in
  if cols <= chunk then laswp_leaf block piv ~k0 ~k1 ~g
  else begin
    let rec strips c acc =
      if c >= cols then List.rev acc
      else
        let w = min chunk (cols - c) in
        strips (c + w)
          (laswp_leaf
             (Mat.sub block ~r0:0 ~c0:c ~rows:block.Mat.rows ~cols:w)
             piv ~k0 ~k1 ~g
          :: acc)
    in
    Spawn_tree.par (strips 0 [])
  end

(* c -= a * b where a is tall (rows a multiple of cols); split rows until
   square, then use the fire-based 2-way matmul *)
let rec tall_mms ~base c a b =
  if c.Mat.rows = c.Mat.cols then
    Matmul.mm_tree ~variant:Matmul.Safe ~sign:(-1.) ~base c a b
  else begin
    assert (c.Mat.rows mod c.Mat.cols = 0);
    let k = c.Mat.rows / c.Mat.cols in
    let top_rows = k / 2 * c.Mat.cols in
    let split m =
      ( Mat.sub m ~r0:0 ~c0:0 ~rows:top_rows ~cols:m.Mat.cols,
        Mat.sub m ~r0:top_rows ~c0:0 ~rows:(m.Mat.rows - top_rows) ~cols:m.Mat.cols )
    in
    let c_top, c_bot = split c and a_top, a_bot = split a in
    Spawn_tree.par [ tall_mms ~base c_top a_top b; tall_mms ~base c_bot a_bot b ]
  end

(* Factorizes the square [a] in place ([L] strictly below the diagonal
   with unit diagonal, [U] on and above), recording global pivot rows in
   the 1 x n [piv]; each panel factorizes its columns as
   [parallel_panel] does. *)
let lu_tree ~base a ~piv =
  if a.Mat.rows <> a.Mat.cols then invalid_arg "Lu.lu_tree: not square";
  let n = a.Mat.rows in
  Workload.validate_shape ~n ~base;
  if piv.Mat.cols < n then invalid_arg "Lu.lu_tree: piv too small";
  let chunk = max 8 base in
  let scratch = Mat.alloc a.Mat.space ~rows:1 ~cols:(2 * ((n / chunk) + 2)) in
  let rec go ~r0 ~c0 ~m =
    let rows = n - r0 in
    if m <= base then
      parallel_panel (Mat.sub a ~r0 ~c0 ~rows ~cols:m) piv ~c0 ~r0 ~chunk ~scratch
    else
      let h = m / 2 in
      let l00 = Mat.sub a ~r0 ~c0 ~rows:h ~cols:h in
      let l_bot = Mat.sub a ~r0:(r0 + h) ~c0 ~rows:(rows - h) ~cols:h in
      let r_full = Mat.sub a ~r0 ~c0:(c0 + h) ~rows ~cols:h in
      let r_top = Mat.sub a ~r0 ~c0:(c0 + h) ~rows:h ~cols:h in
      let r_bot = Mat.sub a ~r0:(r0 + h) ~c0:(c0 + h) ~rows:(rows - h) ~cols:h in
      Spawn_tree.seq
        [
          go ~r0 ~c0 ~m:h;
          laswp_tree r_full piv ~k0:c0 ~k1:(c0 + h) ~g:r0;
          Trs.trs_tree ~unit:true ~base l00 r_top;
          tall_mms ~base r_bot l_bot r_top;
          go ~r0:(r0 + h) ~c0:(c0 + h) ~m:h;
          laswp_tree l_bot piv ~k0:(c0 + h) ~k1:(c0 + m) ~g:(r0 + h);
        ]
  in
  go ~r0:0 ~c0:0 ~m:n

let workload ~n ~base ~seed () =
  Workload.validate_shape ~n ~base;
  if base = n then
    invalid_arg "Lu.workload: base must be smaller than n for a panel chain";
  let space = Mat.create_space () in
  let a = Mat.alloc space ~rows:n ~cols:n in
  let piv = Mat.alloc space ~rows:1 ~cols:n in
  let rspace = Mat.create_space () in
  let reference = Mat.alloc rspace ~rows:n ~cols:n in
  let piv_ref = Mat.alloc rspace ~rows:1 ~cols:n in
  let reset () =
    let rng = Nd_util.Prng.create seed in
    Kernels.fill_uniform a rng ~lo:(-1.) ~hi:1.;
    Mat.fill piv (fun _ _ -> 0.);
    Mat.copy_contents ~src:a ~dst:reference;
    Mat.fill piv_ref (fun _ _ -> 0.);
    Kernels.lu_inplace reference ~piv:piv_ref
  in
  {
    Workload.name = "lu";
    n;
    base;
    tree = lu_tree ~base a ~piv;
    registry = Rules.registry;
    reset;
    check =
      (fun () ->
        Float.max (Mat.max_abs_diff a reference) (Mat.max_abs_diff piv piv_ref));
  }
