module Dag = Nd_dag.Dag
module Heap = Nd_util.Heap
module Prng = Nd_util.Prng
module Pmh = Nd_pmh.Pmh
module Cache = Nd_mem.Cache_sim
open Nd

module Is = Nd_util.Interval_set

type stats = {
  time : int;
  work : int;
  misses : int array;
  miss_cost : int;
  space_hwm : int;
  steals : int;
  busy : int;
  n_procs : int;
  miss_table : Nd_mem.Miss_table.t;
}

let utilization s =
  (* same convention as [Sb_sched.utilization]: an empty run is 0. busy *)
  if s.time = 0 || s.n_procs = 0 then 0.
  else float_of_int s.busy /. (float_of_int s.time *. float_of_int s.n_procs)

let pp_stats ppf s =
  let util =
    if s.time = 0 || s.n_procs = 0 then "n/a"
    else Printf.sprintf "%.3f" (utilization s)
  in
  Format.fprintf ppf
    "time=%d work=%d miss_cost=%d space_hwm=%d util=%s steals=%d misses=[%s]"
    s.time s.work s.miss_cost s.space_hwm util s.steals
    (String.concat ";" (Array.to_list (Array.map string_of_int s.misses)))

(* simple growable int deque *)
type deque = { mutable buf : int array; mutable top : int; mutable bot : int }
(* elements live in indices [top, bot) *)

let deque_create () = { buf = Array.make 16 0; top = 0; bot = 0 }

let deque_size d = d.bot - d.top

let deque_push_bot d v =
  if d.bot >= Array.length d.buf then begin
    let n = deque_size d in
    let bigger = Array.make (max 32 (2 * n)) 0 in
    Array.blit d.buf d.top bigger 0 n;
    d.buf <- bigger;
    d.top <- 0;
    d.bot <- n
  end;
  d.buf.(d.bot) <- v;
  d.bot <- d.bot + 1

let deque_pop_bot d =
  if deque_size d = 0 then None
  else begin
    d.bot <- d.bot - 1;
    Some d.buf.(d.bot)
  end

let deque_steal_top d =
  if deque_size d = 0 then None
  else begin
    let v = d.buf.(d.top) in
    d.top <- d.top + 1;
    Some v
  end

let run ?(seed = 0x5eed) ?(steal_cost = 2)
    ?(tracer = Nd_trace.Collector.null) program machine =
  let dag = Program.dag program in
  let nv = Dag.n_vertices dag in
  let h = Pmh.n_levels machine in
  let n_procs = Pmh.n_procs machine in
  let rng = Prng.create seed in
  let traced = Nd_trace.Collector.enabled tracer in
  (* one inclusive LRU per cache instance *)
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
    (* per-level batching: caches are independent, so each one sees the
       same address-ordered sequence as the old word-at-a-time loop *)
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
  let deques = Array.init n_procs (fun _ -> deque_create ()) in
  (* all sources start on processor 0 (classic WS starts serially) *)
  for v = 0 to nv - 1 do
    if indeg.(v) = 0 then deque_push_bot deques.(0) v
  done;
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
  let steals = ref 0 in
  let makespan = ref 0 in
  (* live space = sum of running strands' footprints *)
  let resident = ref 0 in
  let space_hwm = ref 0 in
  let fp_words v = Is.cardinal (Dag.footprint_of dag v) in
  let complete p v =
    for k = csr.Dag.succ_off.(v) to csr.Dag.succ_off.(v + 1) - 1 do
      let w = csr.Dag.succ_tgt.(k) in
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then begin
        deque_push_bot deques.(p) w;
        if traced then
          Nd_trace.Collector.emit tracer ~worker:p ~ts:!now
            (Nd_trace.Event.Fire { target = w; level = 0 });
        wake_all ()
      end
    done
  in
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
      if traced then
        Nd_trace.Collector.emit tracer ~worker:p ~ts:t
          (Nd_trace.Event.Strand_end { vertex = v });
      complete p v
    end;
    if not idle.(p) then begin
      let task =
        match deque_pop_bot deques.(p) with
        | Some v -> Some (v, 0)
        | None ->
          (* one steal attempt from a random victim with work *)
          let candidates = ref [] in
          for q = 0 to n_procs - 1 do
            if q <> p && deque_size deques.(q) > 0 then candidates := q :: !candidates
          done;
          (match !candidates with
          | [] -> None
          | l ->
            let victim = List.nth l (Prng.int rng (List.length l)) in
            (match deque_steal_top deques.(victim) with
            | Some v ->
              incr steals;
              if traced then
                Nd_trace.Collector.emit tracer ~worker:p ~ts:t
                  (Nd_trace.Event.Steal_success { victim; vertex = Some v });
              Some (v, steal_cost)
            | None ->
              if traced then
                Nd_trace.Collector.emit tracer ~worker:p ~ts:t
                  (Nd_trace.Event.Steal_attempt { victim });
              None))
      in
      match task with
      | Some (v, extra) ->
        let m0 = if traced then Array.copy misses else [||] in
        let d = extra + vertex_cost p v in
        if traced then begin
          Nd_trace.Collector.emit tracer ~worker:p ~ts:t
            (Nd_trace.Event.Strand_begin
               { vertex = v; work = Dag.work_of dag v; label = Dag.label dag v });
          for j = 1 to h do
            let dm = misses.(j - 1) - m0.(j - 1) in
            if dm > 0 then
              Nd_trace.Collector.emit tracer ~worker:p ~ts:t
                (Nd_trace.Event.Cache_miss
                   { level = j; count = dm;
                     cost = dm * Pmh.miss_cost machine ~level:j })
          done
        end;
        running.(p) <- v;
        resident := !resident + fp_words v;
        if !resident > !space_hwm then space_hwm := !resident;
        busy := !busy + d;
        Heap.push events (t + d) p
      | None -> idle.(p) <- true
    end
  done;
  if !executed < nv then failwith "Work_steal.run: stalled (cyclic DAG?)";
  {
    time = !makespan;
    work = Dag.work dag;
    misses;
    miss_cost = !total_miss_cost;
    space_hwm = !space_hwm;
    steals = !steals;
    busy = !busy;
    n_procs;
    miss_table = Nd_mem.Miss_table.of_sims caches;
  }

module Shared : Scheduler.S = struct
  let name = "ws"

  (* comm_delay is a no-op: work stealing already pays [steal_cost] on
     every migration, which is its communication-delay model *)
  let run ?(seed = 0x5eed) ?comm_delay:_ program machine =
    let s = run ~seed program machine in
    {
      Scheduler.time = s.time;
      work = s.work;
      span = Dag.span (Nd.Program.dag program);
      misses = s.misses;
      miss_cost = s.miss_cost;
      space_hwm = s.space_hwm;
      busy = s.busy;
      n_procs = s.n_procs;
      miss_table = Some s.miss_table;
    }
end
