module Dag = Nd_dag.Dag
module Is = Nd_util.Interval_set
open Nd

type report = {
  m : int;
  alpha : float;
  q_star : int;
  q_hat : float;
  depth_term : float;
  work_term : float;
  effective_depth : float;
}

(* effective depth of an M-maximal task: ceil(Q*(t')/s^alpha) with
   Q*(t') = s(t') *)
let task_effective_depth size alpha =
  if size = 0 then 0
  else int_of_float (Float.ceil (float_of_int size ** (1. -. alpha)))

(* Contract the algorithm DAG to maximal tasks (weighted by effective
   depth) plus zero-weight glue vertices; the depth-dominated term is its
   longest path. *)
let depth_dominated program ~m ~alpha =
  let d = Program.decompose program ~m in
  let dag = Program.dag program in
  let n_tasks = Array.length d.Program.tasks in
  (* dense ids for glue vertices *)
  let nv = Dag.n_vertices dag in
  let glue_id = Array.make nv (-1) in
  let n_glue_v = ref 0 in
  for v = 0 to nv - 1 do
    if d.Program.task_of_vertex.(v) < 0 then begin
      glue_id.(v) <- n_tasks + !n_glue_v;
      incr n_glue_v
    end
  done;
  let contracted = Dag.create () in
  Array.iter
    (fun t ->
      ignore
        (Dag.add_vertex contracted
           ~work:(task_effective_depth (Program.size program t) alpha)
           ~reads:Is.empty ~writes:Is.empty ()))
    d.Program.tasks;
  for _ = 1 to !n_glue_v do
    ignore (Dag.add_vertex contracted ~work:0 ~reads:Is.empty ~writes:Is.empty ())
  done;
  let node_of v =
    let t = d.Program.task_of_vertex.(v) in
    if t >= 0 then t else glue_id.(v)
  in
  let csr = Dag.csr dag in
  Dag.freeze contracted (fun link ->
      for u = 0 to nv - 1 do
        let cu = node_of u in
        for k = csr.Dag.succ_off.(u) to csr.Dag.succ_off.(u + 1) - 1 do
          let cv = node_of csr.Dag.succ_tgt.(k) in
          if cu <> cv then link cu cv
        done
      done);
  float_of_int (Dag.span contracted)

let analyze program ~m ~alpha =
  if alpha < 0. then invalid_arg "Ecc.analyze: negative alpha";
  let q_star = Pcc.q_star program ~m in
  let s_root = Program.size program (Program.root program) in
  let s_alpha = float_of_int s_root ** alpha in
  let work_term = Float.ceil (float_of_int q_star /. s_alpha) in
  let depth_term = depth_dominated program ~m ~alpha in
  let effective_depth = Float.max work_term depth_term in
  {
    m;
    alpha;
    q_star;
    q_hat = effective_depth *. s_alpha;
    depth_term;
    work_term;
    effective_depth;
  }

let q_hat program ~m ~alpha = (analyze program ~m ~alpha).q_hat

let parallelizability program ~m ~c =
  (* Q̂ is monotone in alpha relative to Q*; binary search the threshold *)
  let ok alpha =
    let r = analyze program ~m ~alpha in
    r.q_hat <= c *. float_of_int r.q_star
  in
  if not (ok 0.) then 0.
  else begin
    let lo = ref 0. and hi = ref 1.5 in
    if ok !hi then !hi
    else begin
      for _ = 1 to 9 do
        let mid = (!lo +. !hi) /. 2. in
        if ok mid then lo := mid else hi := mid
      done;
      !lo
    end
  end
