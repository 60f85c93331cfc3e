module Dag = Nd_dag.Dag
module Is = Nd_util.Interval_set
module Heap = Nd_util.Heap
module Pmh = Nd_pmh.Pmh
module Cache = Nd_mem.Cache_sim
open Nd

(* serial execution order: simulate the 1-processor depth-first run of
   the DAG (the schedule a serial execution of the spawn tree produces)
   and number the vertices in completion order.  Sources start lowest
   id first; a finished vertex's newly enabled successors run next,
   leftmost first — a LIFO ready stack, i.e. DFS. *)
let serial_order dag =
  let nv = Dag.n_vertices dag in
  let csr = Dag.csr dag in
  let indeg = Array.copy csr.Dag.indeg in
  let stack = ref [] in
  for v = nv - 1 downto 0 do
    if indeg.(v) = 0 then stack := v :: !stack
  done;
  let prio = Array.make nv 0 in
  let next = ref 0 in
  while !stack <> [] do
    match !stack with
    | [] -> assert false
    | v :: rest ->
      stack := rest;
      prio.(v) <- !next;
      incr next;
      let newly = ref [] in
      for k = csr.Dag.succ_off.(v + 1) - 1 downto csr.Dag.succ_off.(v) do
        let w = csr.Dag.succ_tgt.(k) in
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then newly := w :: !newly
      done;
      stack := !newly @ !stack
  done;
  if !next < nv then failwith "Pdf_sched: cyclic DAG";
  prio

let run ?seed:_ ?(comm_delay = 0) program machine =
  let dag = Program.dag program in
  let nv = Dag.n_vertices dag in
  let h = Pmh.n_levels machine in
  let n_procs = Pmh.n_procs machine in
  let prio = serial_order dag in
  (* one inclusive LRU per cache instance, as in the ws baseline *)
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
  (* global ready pool ordered by serial priority (min-heap, FIFO ties) *)
  let ready : int Heap.t = Heap.create () in
  for v = 0 to nv - 1 do
    if indeg.(v) = 0 then Heap.push ready prio.(v) v
  done;
  (* owner.(v) = processor that executed v, for the comm-delay charge *)
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
  let resident = ref 0 in
  let space_hwm = ref 0 in
  let fp_words v = Is.cardinal (Dag.footprint_of dag v) in
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
      incr executed;
      resident := !resident - fp_words v;
      for k = csr.Dag.succ_off.(v) to csr.Dag.succ_off.(v + 1) - 1 do
        let w = csr.Dag.succ_tgt.(k) in
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then begin
          Heap.push ready prio.(w) w;
          wake_all ()
        end
      done
    end;
    if not idle.(p) then
      if Heap.is_empty ready then idle.(p) <- true
      else begin
        let _, v = Heap.pop ready in
        let extra = if needs_comm p v then comm_delay else 0 in
        let d = extra + vertex_cost p v in
        owner.(v) <- p;
        running.(p) <- v;
        resident := !resident + fp_words v;
        if !resident > !space_hwm then space_hwm := !resident;
        busy := !busy + d;
        Heap.push events (t + d) p
      end
  done;
  if !executed < nv then failwith "Pdf_sched.run: stalled (cyclic DAG?)";
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
  let name = "pdf"

  let run = run
end
