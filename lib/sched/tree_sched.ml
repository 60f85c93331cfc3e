module Dag = Nd_dag.Dag
module Heap = Nd_util.Heap
module Pmh = Nd_pmh.Pmh
module Cache = Nd_mem.Cache_sim
open Nd

(* ---- traversal order (Liu / Marchal–Sinnen–Vivien) ----

   The spawn tree is exactly the task tree of the memory-bounded tree
   scheduling literature: a subtree occupies its size s(n) while any of
   it is live.  A serial post-order traversal that visits the children
   of every free-choice node in descending (peak - size) keeps the peak
   residency minimal (Liu's theorem); Seq children are dependency-
   ordered and stay in program order.  The resulting order of the
   M-maximal task roots is the admission priority. *)

type order = {
  task_prio : int array;  (* task index -> 1-based priority *)
  peak_root : int;  (* estimated serial peak residency of the root *)
}

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
  { task_prio; peak_root = peak.(root) }

let run ?seed:_ ?(comm_delay = 0) ?budget program machine =
  let dag = Program.dag program in
  let nv = Dag.n_vertices dag in
  let h = Pmh.n_levels machine in
  let n_procs = Pmh.n_procs machine in
  (* the memory bound defaults to the outermost cache: the scheduler
     promises never to have more task footprint in flight than fits
     there.  Tasks are the M-maximal decomposition at a quarter of the
     budget, so several run concurrently under the bound. *)
  let budget =
    match budget with
    | Some b -> max 1 b
    | None -> Pmh.size machine ~level:h
  in
  let m_task = max 1 (budget / 4) in
  let d = Program.decompose program ~m:m_task in
  let n_tasks = Array.length d.Program.tasks in
  let task_size ti = Program.size program d.Program.tasks.(ti) in
  let { task_prio; peak_root = _ } = traversal_order program d in
  let caches =
    Array.init h (fun i ->
        Array.init
          (Pmh.n_caches machine ~level:(i + 1))
          (fun _ -> Cache.create ~m:(Pmh.size machine ~level:(i + 1)) ()))
  in
  let misses = Array.make h 0 in
  let total_miss_cost = ref 0 in
  let vertex_cost p v =
    let cost = ref (Dag.work_of dag v) in
    let fp = Dag.footprint_of dag v in
    for j = 1 to h do
      let c = Pmh.cache_of_proc machine ~proc:p ~level:j in
      let dm = Cache.access_set caches.(j - 1).(c) fp in
      if dm > 0 then begin
        misses.(j - 1) <- misses.(j - 1) + dm;
        let mc = dm * Pmh.miss_cost machine ~level:j in
        cost := !cost + mc;
        total_miss_cost := !total_miss_cost + mc
      end
    done;
    !cost
  in
  let csr = Dag.csr dag in
  let indeg = Array.copy csr.Dag.indeg in
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
  for v = 0 to nv - 1 do
    if indeg.(v) = 0 then enable v
  done;
  admit_fitting ~force:true;
  let owner = Array.make nv (-1) in
  let needs_comm p v =
    let rec remote k =
      k < csr.Dag.pred_off.(v + 1)
      && (owner.(csr.Dag.pred_tgt.(k)) <> p || remote (k + 1))
    in
    comm_delay > 0 && remote csr.Dag.pred_off.(v)
  in
  let events : int Heap.t = Heap.create () in
  let idle = Array.make n_procs false in
  let running = Array.make n_procs (-1) in
  let n_running = ref 0 in
  let now = ref 0 in
  let wake_all () =
    for p = 0 to n_procs - 1 do
      if idle.(p) then begin
        idle.(p) <- false;
        Heap.push events !now p
      end
    done
  in
  let executed = ref 0 in
  let busy = ref 0 in
  let makespan = ref 0 in
  for p = 0 to n_procs - 1 do
    Heap.push events 0 p
  done;
  while not (Heap.is_empty events) do
    let t, p = Heap.pop events in
    now := t;
    if running.(p) >= 0 then begin
      if t > !makespan then makespan := t;
      let v = running.(p) in
      running.(p) <- (-1);
      decr n_running;
      incr executed;
      let ti = d.Program.task_of_vertex.(v) in
      if ti >= 0 then begin
        remaining.(ti) <- remaining.(ti) - 1;
        if remaining.(ti) = 0 then begin
          (* task done: its footprint retires; let the next ones in *)
          resident := !resident - task_size ti;
          admit_fitting ~force:false
        end
      end;
      for k = csr.Dag.succ_off.(v) to csr.Dag.succ_off.(v + 1) - 1 do
        let w = csr.Dag.succ_tgt.(k) in
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then enable w
      done;
      admit_fitting ~force:false;
      wake_all ()
    end;
    if not idle.(p) then
      if Heap.is_empty ready then begin
        (* nothing dispatchable: if the whole machine is stalled on the
           budget, force the front pending task in *)
        if !n_running = 0 && not (Heap.is_empty pending) then begin
          admit_fitting ~force:true;
          Heap.push events t p
        end
        else idle.(p) <- true
      end
      else begin
        let _, v = Heap.pop ready in
        let extra = if needs_comm p v then comm_delay else 0 in
        let d = extra + vertex_cost p v in
        owner.(v) <- p;
        running.(p) <- v;
        incr n_running;
        busy := !busy + d;
        Heap.push events (t + d) p
      end
  done;
  if !executed < nv then failwith "Tree_sched.run: stalled (cyclic DAG?)";
  {
    Scheduler.time = !makespan;
    work = Dag.work dag;
    span = Dag.span dag;
    misses;
    miss_cost = !total_miss_cost;
    space_hwm = !space_hwm;
    busy = !busy;
    n_procs;
    miss_table = Some (Nd_mem.Miss_table.of_sims caches);
  }

module Shared : Scheduler.S = struct
  let name = "tree"

  let run ?seed ?comm_delay program machine =
    run ?seed ?comm_delay program machine
end
