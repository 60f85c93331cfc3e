module Dag = Nd_dag.Dag
module Heap = Nd_util.Heap
module Is = Nd_util.Interval_set
module Pmh = Nd_pmh.Pmh
module Lru = Nd_mem.Lru_bank
module Collector = Nd_trace.Collector
module Event = Nd_trace.Event

let never () = false

let run ?(comm_delay = 0) ?(tracer = Collector.null) ?(surcharge = fun _ -> 0)
    ?(retire = ignore) ?(settle = never) ?(unstick = never) ~push ~pop program
    machine =
  let dag = Nd.Program.dag program in
  let nv = Dag.n_vertices dag in
  let csr = Dag.csr dag in
  let h = Pmh.n_levels machine in
  let n_procs = Pmh.n_procs machine in
  let bank = Lru.create machine in
  let traced = Collector.enabled tracer in
  let indeg = Array.copy csr.Dag.indeg in
  (* For the comm-delay surcharge, [ran.(v)] sums up where [v]'s
     finished predecessors ran: -1 none has finished, q >= 0 all ran on
     q, -2 on two processors or more.  All of them have finished when
     [v] is dispatched, so [remote p v] tells whether one ran off [p]. *)
  let ran = if comm_delay > 0 then Array.make nv (-1) else [||] in
  let remote p v =
    let q = ran.(v) in
    q = -2 || (q >= 0 && q <> p)
  in
  (* payload: the processor whose strand ends (or who wakes) then *)
  let events : int Heap.t = Heap.create () in
  let idle = Array.make n_procs false in
  let running = Array.make n_procs (-1) in
  let n_running = ref 0 in
  let wake t =
    for p = 0 to n_procs - 1 do
      if idle.(p) then begin
        idle.(p) <- false;
        Heap.push events t p
      end
    done
  in
  let executed = ref 0 in
  let busy = ref 0 in
  let makespan = ref 0 in
  (* live space = sum of running strands' footprints; [held.(p)] is
     the size of the one [p] runs, counted at dispatch *)
  let resident = ref 0 in
  let space_hwm = ref 0 in
  let held = Array.make n_procs 0 in
  let complete p t v =
    if t > !makespan then makespan := t;
    running.(p) <- -1;
    decr n_running;
    incr executed;
    resident := !resident - held.(p);
    if traced then
      Collector.emit tracer ~worker:p ~ts:t (Event.Strand_end { vertex = v });
    retire v;
    let enabled = ref false in
    for k = csr.Dag.succ_off.(v) to csr.Dag.succ_off.(v + 1) - 1 do
      let w = csr.Dag.succ_tgt.(k) in
      if comm_delay > 0 then begin
        let q = ran.(w) in
        if q = -1 then ran.(w) <- p else if q <> p then ran.(w) <- -2
      end;
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then begin
        push p w;
        if traced then
          Collector.emit tracer ~worker:p ~ts:t
            (Event.Fire { target = w; level = 0 });
        enabled := true
      end
    done;
    if settle () || !enabled then wake t
  in
  let dispatch p t v =
    let m0 = if traced then Array.copy (Lru.misses bank) else [||] in
    let extra =
      surcharge p + if comm_delay > 0 && remote p v then comm_delay else 0
    in
    let fp = Dag.footprint_of dag v in
    let d = extra + Dag.work_of dag v + Lru.charge bank ~proc:p fp in
    if traced then begin
      Collector.emit tracer ~worker:p ~ts:t
        (Event.Strand_begin
           { vertex = v; work = Dag.work_of dag v; label = Dag.label dag v });
      let misses = Lru.misses bank in
      for j = 1 to h do
        let dm = misses.(j - 1) - m0.(j - 1) in
        if dm > 0 then
          Collector.emit tracer ~worker:p ~ts:t
            (Event.Cache_miss
               { level = j; count = dm; cost = dm * Pmh.miss_cost machine ~level:j })
      done
    end;
    running.(p) <- v;
    incr n_running;
    held.(p) <- Is.cardinal fp;
    resident := !resident + held.(p);
    if !resident > !space_hwm then space_hwm := !resident;
    busy := !busy + d;
    Heap.push events (t + d) p
  in
  for p = 0 to n_procs - 1 do
    Heap.push events 0 p
  done;
  while not (Heap.is_empty events) do
    let t, p = Heap.pop events in
    if running.(p) >= 0 then complete p t running.(p);
    if not idle.(p) then begin
      let v = pop p t in
      if v >= 0 then dispatch p t v
      else if !n_running = 0 && unstick () then Heap.push events t p
      else idle.(p) <- true
    end
  done;
  if !executed < nv then failwith "Vertex_sim.run: stalled (cyclic DAG?)";
  {
    Scheduler.time = !makespan;
    work = Dag.work dag;
    span = Dag.span dag;
    misses = Lru.misses bank;
    miss_cost = Lru.miss_cost bank;
    space_hwm = !space_hwm;
    busy = !busy;
    n_procs;
    miss_table = Some (Lru.miss_table bank);
  }
