module Dag = Nd_dag.Dag
module Heap = Nd_util.Heap
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

let run ?seed:_ ?comm_delay program machine =
  let dag = Program.dag program in
  let prio = serial_order dag in
  (* global ready pool ordered by serial priority (min-heap, FIFO ties) *)
  let ready : int Heap.t = Heap.create () in
  let push _ v = Heap.push ready prio.(v) v in
  Array.iteri (fun v d -> if d = 0 then push 0 v) (Dag.csr dag).Dag.indeg;
  Vertex_sim.run ?comm_delay ~push
    ~pop:(fun _ _ -> if Heap.is_empty ready then -1 else snd (Heap.pop ready))
    program machine

module Shared : Scheduler.S = struct
  let name = "pdf"

  let run = run
end
