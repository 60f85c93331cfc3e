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

(* What a report needs that does not depend on alpha: Q*, the root's
   size, and the algorithm DAG contracted to M-maximal tasks plus glue
   vertices (all of zero work), with each task's size kept. *)
type contracted = {
  cq_star : int;
  s_root : int;
  tasks_dag : Dag.t;  (* tasks first, in decomposition order, then glue *)
  task_sizes : int array;
}

let contract program ~m =
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
  for _ = 1 to n_tasks + !n_glue_v do
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
  {
    cq_star = Pcc.q_star program ~m;
    s_root = Program.size program (Program.root program);
    tasks_dag = contracted;
    task_sizes = Array.map (Program.size program) d.Program.tasks;
  }

(* The depth-dominated term is the contracted DAG's longest path, each
   task weighted by its effective depth and glue by zero. *)
let report c ~m ~alpha =
  let s_alpha = float_of_int c.s_root ** alpha in
  let work_term = Float.ceil (float_of_int c.cq_star /. s_alpha) in
  let n_tasks = Array.length c.task_sizes in
  let depth_term =
    float_of_int
      (Dag.longest_path_weighted c.tasks_dag (fun v ->
           if v < n_tasks then task_effective_depth c.task_sizes.(v) alpha else 0))
  in
  let effective_depth = Float.max work_term depth_term in
  {
    m;
    alpha;
    q_star = c.cq_star;
    q_hat = effective_depth *. s_alpha;
    depth_term;
    work_term;
    effective_depth;
  }

let analyze program ~m ~alpha =
  if alpha < 0. then invalid_arg "Ecc.analyze: negative alpha";
  report (contract program ~m) ~m ~alpha

let q_hat program ~m ~alpha = (analyze program ~m ~alpha).q_hat

let parallelizability program ~m ~c =
  (* Q̂ is monotone in alpha relative to Q*; binary search the threshold,
     contracting the DAG once *)
  let contracted = contract program ~m in
  let ok alpha =
    let r = report contracted ~m ~alpha in
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
