module Dag = Nd_dag.Dag
module Heap = Nd_util.Heap
module Pmh = Nd_pmh.Pmh
open Nd

(* ---- traversal order (Liu / Marchal–Sinnen–Vivien) ----

   The spawn tree is exactly the task tree of the memory-bounded tree
   scheduling literature: a subtree occupies its size s(n) while any of
   it is live.  A serial post-order traversal that visits the children
   of every free-choice node in descending (peak - size) keeps the peak
   residency minimal (Liu's theorem); Seq children are dependency-
   ordered and stay in program order.  The resulting order of the
   M-maximal task roots is the admission priority: task index ->
   1-based priority. *)

let traversal_order program (d : Program.decomposition) =
  let n_nodes = Program.n_nodes program in
  let n_tasks = Array.length d.Program.tasks in
  let peak = Array.make n_nodes 0 in
  let order : int array array = Array.make n_nodes [||] in
  let size n = Program.size program n in
  let rec compute n =
    let cs = Program.children program n in
    if Array.length cs = 0 then peak.(n) <- size n
    else begin
      Array.iter compute cs;
      let ord = Array.copy cs in
      (match Program.kind_of program n with
      | Program.Seq -> ()  (* children depend on each other: keep order *)
      | Program.Leaf _ | Program.Par | Program.Fire _ ->
        (* descending (peak - size): pay each child's transient peak
           while as few finished siblings as possible are resident *)
        Array.sort
          (fun a b -> compare (peak.(b) - size b) (peak.(a) - size a))
          ord);
      order.(n) <- ord;
      let acc = ref 0 and pk = ref 0 in
      Array.iter
        (fun c ->
          if !acc + peak.(c) > !pk then pk := !acc + peak.(c);
          acc := !acc + size c)
        ord;
      (* the sum over children double-counts shared words; the subtree
         never occupies more than its own size *)
      peak.(n) <- max (size n) (min !pk !acc)
    end
  in
  let root = Program.root program in
  compute root;
  let task_prio = Array.make n_tasks 0 in
  let next = ref 0 in
  let rec visit n =
    let ti = d.Program.task_of_node.(n) in
    if ti >= 0 then begin
      if task_prio.(ti) = 0 then begin
        incr next;
        task_prio.(ti) <- !next
      end
    end
    else Array.iter visit order.(n)
  in
  visit root;
  task_prio

let run ?seed:_ ?comm_delay program machine =
  let dag = Program.dag program in
  let nv = Dag.n_vertices dag in
  (* the memory bound is the outermost cache: the scheduler promises
     never to have more task footprint in flight than fits there, save
     for forced admissions.  Tasks are the M-maximal decomposition at a
     quarter of the budget, so several run concurrently under the
     bound. *)
  let budget = Pmh.size machine ~level:(Pmh.n_levels machine) in
  let d = Program.decompose program ~m:(max 1 (budget / 4)) in
  let n_tasks = Array.length d.Program.tasks in
  let task_size ti = Program.size program d.Program.tasks.(ti) in
  let task_prio = traversal_order program d in
  (* admission control: a task's vertices become dispatchable only once
     the task is admitted against the budget.  Ready vertices of
     unadmitted tasks wait in their task's buffer; tasks with buffered
     vertices queue for admission in traversal order. *)
  let remaining = Array.make n_tasks 0 in
  for v = 0 to nv - 1 do
    let ti = d.Program.task_of_vertex.(v) in
    if ti >= 0 then remaining.(ti) <- remaining.(ti) + 1
  done;
  let admitted = Array.make n_tasks false in
  let task_buf = Array.init n_tasks (fun _ -> Queue.create ()) in
  let queued = Array.make n_tasks false in
  let pending : int Heap.t = Heap.create () in
  let ready : int Heap.t = Heap.create () in
  let resident = ref 0 in
  let space_hwm = ref 0 in
  let admit ti =
    admitted.(ti) <- true;
    resident := !resident + task_size ti;
    if !resident > !space_hwm then space_hwm := !resident;
    Queue.iter (fun v -> Heap.push ready task_prio.(ti) v) task_buf.(ti);
    Queue.clear task_buf.(ti)
  in
  (* admit pending tasks in strict priority order while they fit; with
     [force], the front task is admitted regardless (progress: it holds
     at least one ready vertex, so someone can run) *)
  let rec admit_fitting ~force =
    if not (Heap.is_empty pending) then begin
      let prio, ti = Heap.pop pending in
      if force || !resident + task_size ti <= budget then begin
        queued.(ti) <- false;
        admit ti;
        admit_fitting ~force:false
      end
      else Heap.push pending prio ti
    end
  in
  let enable v =
    let ti = d.Program.task_of_vertex.(v) in
    if ti < 0 then Heap.push ready 0 v
    else if admitted.(ti) then Heap.push ready task_prio.(ti) v
    else begin
      Queue.push v task_buf.(ti);
      if not queued.(ti) then begin
        queued.(ti) <- true;
        Heap.push pending task_prio.(ti) ti
      end
    end
  in
  Array.iteri (fun v dg -> if dg = 0 then enable v) (Dag.csr dag).Dag.indeg;
  admit_fitting ~force:true;
  let retire v =
    let ti = d.Program.task_of_vertex.(v) in
    if ti >= 0 then begin
      remaining.(ti) <- remaining.(ti) - 1;
      if remaining.(ti) = 0 then begin
        (* task done: its footprint retires; let the next ones in *)
        resident := !resident - task_size ti;
        admit_fitting ~force:false
      end
    end
  in
  let s =
    Vertex_sim.run ?comm_delay
      ~push:(fun _ v -> enable v)
      ~pop:(fun _ _ -> if Heap.is_empty ready then -1 else snd (Heap.pop ready))
      ~retire
      ~settle:(fun () ->
        (* wake after every completion: an admission readies vertices
           that no completion enabled *)
        admit_fitting ~force:false;
        true)
      ~unstick:(fun () ->
        (* the whole machine is stalled on the budget: force the front
           pending task in *)
        (not (Heap.is_empty pending))
        && begin
          admit_fitting ~force:true;
          true
        end)
      program machine
  in
  (* report what the budget caps: admitted footprint, not running strands *)
  { s with Scheduler.space_hwm = !space_hwm }

module Shared : Scheduler.S = struct
  let name = "tree"

  let run = run
end
