module Dag = Nd_dag.Dag

let act program v =
  let n = Program.vertex_owner program v in
  if n >= 0 then
    match Program.kind_of program n with
    | Program.Leaf s -> ( match s.Strand.action with Some f -> f () | None -> ())
    | Program.Seq | Program.Par | Program.Fire _ -> ()

let run ?rng ?(tracer = Nd_trace.Collector.null) program =
  let dag = Program.dag program in
  let n = Dag.n_vertices dag in
  let traced = Nd_trace.Collector.enabled tracer in
  (* virtual clock for the trace: cumulative work executed so far *)
  let vclock = ref 0 in
  let csr = Dag.csr dag in
  let indeg = Array.copy csr.Dag.indeg in
  (* ready pool as an array with O(1) removal by swap *)
  let ready = Array.make n 0 in
  let n_ready = ref 0 in
  let push v =
    ready.(!n_ready) <- v;
    incr n_ready
  in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then push v
  done;
  let executed = ref 0 in
  while !n_ready > 0 do
    let i =
      match rng with
      | Some r -> Nd_util.Prng.int r !n_ready
      | None -> !n_ready - 1
    in
    let v = ready.(i) in
    ready.(i) <- ready.(!n_ready - 1);
    decr n_ready;
    if traced then begin
      let work = Dag.work_of dag v in
      if work > 0 then
        Nd_trace.Collector.emit tracer ~worker:0 ~ts:!vclock
          (Nd_trace.Event.Strand_begin
             { vertex = v; work; label = Dag.label dag v })
    end;
    act program v;
    if traced then begin
      let work = Dag.work_of dag v in
      vclock := !vclock + work;
      if work > 0 then
        Nd_trace.Collector.emit tracer ~worker:0 ~ts:!vclock
          (Nd_trace.Event.Strand_end { vertex = v })
    end;
    incr executed;
    for k = csr.Dag.succ_off.(v) to csr.Dag.succ_off.(v + 1) - 1 do
      let w = csr.Dag.succ_tgt.(k) in
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then begin
        push w;
        if traced then
          Nd_trace.Collector.emit tracer ~worker:0 ~ts:!vclock
            (Nd_trace.Event.Fire { target = w; level = 0 })
      end
    done
  done;
  (* some vertex never became ready: a cycle *)
  if !executed < n then raise (Dag.Cycle (Dag.cycle_witness dag indeg))

let run_sequential program =
  let rec go tree =
    match tree with
    | Spawn_tree.Leaf s -> ( match s.Strand.action with Some f -> f () | None -> ())
    | Spawn_tree.Seq l | Spawn_tree.Par l -> List.iter go l
    | Spawn_tree.Fire { src; snk; _ } ->
      go src;
      go snk
  in
  go (Program.tree program)
