module Dag = Nd_dag.Dag
module Is = Nd_util.Interval_set
module Heap = Nd_util.Heap
open Nd

let brent_bound (s : Scheduler.stats) =
  ((s.work + s.n_procs - 1) / s.n_procs) + s.span

let run ~procs program =
  if procs < 1 then invalid_arg "Greedy.run: procs < 1";
  let dag = Program.dag program in
  let nv = Dag.n_vertices dag in
  let csr = Dag.csr dag in
  let indeg = Array.copy csr.Dag.indeg in
  let ready = Queue.create () in
  for v = 0 to nv - 1 do
    if indeg.(v) = 0 then Queue.push v ready
  done;
  let events : int Heap.t = Heap.create () in
  (* payload: vertex finishing at that time *)
  let free_procs = ref procs in
  let now = ref 0 in
  let makespan = ref 0 in
  let executed = ref 0 in
  (* live space = sum of running strands' footprints (an upper bound:
     overlap between concurrent strands is counted once per strand);
     [held.(v)] is the size of [v]'s, counted at dispatch *)
  let resident = ref 0 in
  let space_hwm = ref 0 in
  let held = Array.make nv 0 in
  let dispatch () =
    while !free_procs > 0 && not (Queue.is_empty ready) do
      let v = Queue.pop ready in
      decr free_procs;
      held.(v) <- Is.cardinal (Dag.footprint_of dag v);
      resident := !resident + held.(v);
      if !resident > !space_hwm then space_hwm := !resident;
      Heap.push events (!now + Dag.work_of dag v) v
    done
  in
  dispatch ();
  while not (Heap.is_empty events) do
    let t, v = Heap.pop events in
    now := t;
    if t > !makespan then makespan := t;
    incr free_procs;
    incr executed;
    resident := !resident - held.(v);
    for k = csr.Dag.succ_off.(v) to csr.Dag.succ_off.(v + 1) - 1 do
      let w = csr.Dag.succ_tgt.(k) in
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then Queue.push w ready
    done;
    dispatch ()
  done;
  if !executed < nv then failwith "Greedy.run: stalled (cyclic DAG?)";
  (* cache-blind: no misses; busy = work (a greedy processor only ever
     executes strand work) *)
  let work = Dag.work dag in
  {
    Scheduler.time = !makespan;
    work;
    span = Dag.span dag;
    misses = [||];
    miss_cost = 0;
    space_hwm = !space_hwm;
    busy = work;
    n_procs = procs;
    miss_table = None;
  }

module Shared : Scheduler.S = struct
  let name = "greedy"

  (* cache-blind and deterministic: both knobs are no-ops *)
  let run ?seed:_ ?comm_delay:_ program machine =
    run ~procs:(Nd_pmh.Pmh.n_procs machine) program
end
