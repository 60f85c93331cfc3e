module Dag = Nd_dag.Dag
module Prng = Nd_util.Prng
module Pmh = Nd_pmh.Pmh
module Collector = Nd_trace.Collector

let steal_cost = 2

(* simple growable int deque; elements live in indices [top, bot) *)
type deque = { mutable buf : int array; mutable top : int; mutable bot : int }

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

(* both ends are taken only from non-empty deques *)
let deque_pop_bot d =
  d.bot <- d.bot - 1;
  d.buf.(d.bot)

let deque_steal_top d =
  d.top <- d.top + 1;
  d.buf.(d.top - 1)

let run ?(seed = 0x5eed) ?(tracer = Collector.null) program machine =
  let n_procs = Pmh.n_procs machine in
  let rng = Prng.create seed in
  let deques = Array.init n_procs (fun _ -> deque_create ()) in
  (* all sources start on processor 0 (classic WS starts serially) *)
  Array.iteri
    (fun v d -> if d = 0 then deque_push_bot deques.(0) v)
    (Dag.csr (Nd.Program.dag program)).Dag.indeg;
  let steals = ref 0 in
  let stole = ref false in
  let pop p t =
    stole := false;
    if deque_size deques.(p) > 0 then deque_pop_bot deques.(p)
    else begin
      (* one steal from a uniformly random victim among the other
         processors with work, counted in descending id order *)
      let n = ref 0 in
      for q = 0 to n_procs - 1 do
        if q <> p && deque_size deques.(q) > 0 then incr n
      done;
      if !n = 0 then -1
      else begin
        let r = ref (Prng.int rng !n) and victim = ref n_procs in
        while !r >= 0 do
          decr victim;
          if !victim <> p && deque_size deques.(!victim) > 0 then decr r
        done;
        let v = deque_steal_top deques.(!victim) in
        incr steals;
        stole := true;
        Collector.emit tracer ~worker:p ~ts:t
          (Nd_trace.Event.Steal_success { victim = !victim; vertex = Some v });
        v
      end
    end
  in
  let s =
    Vertex_sim.run ~tracer
      ~surcharge:(fun _ -> if !stole then steal_cost else 0)
      ~push:(fun p v -> deque_push_bot deques.(p) v)
      ~pop program machine
  in
  (s, !steals)

module Shared : Scheduler.S = struct
  let name = "ws"

  (* comm_delay is a no-op: work stealing already pays [steal_cost] on
     every migration, which is its communication-delay model *)
  let run ?(seed = 0x5eed) ?comm_delay:_ program machine =
    fst (run ~seed program machine)
end
