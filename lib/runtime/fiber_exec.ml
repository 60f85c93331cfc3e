module Trace = Nd_trace.Collector

(* ----------------------------- hooks ------------------------------- *)

module Hooks = struct
  let yield : (string -> unit) option ref = ref None

  let lost_wakeup = ref false

  let stall_window = ref ignore

  let set_yield f = yield := f

  let set_lost_wakeup b = lost_wakeup := b

  let set_stall_window f = stall_window := Option.value f ~default:ignore
end

let[@inline] yield_point what =
  match !Hooks.yield with None -> () | Some f -> f what

(* --------------------------- injector ------------------------------ *)

(* A small closable MPMC used for external submissions and for
   resumptions arriving from threads that are not workers of the
   target pool.  It is off the hot path (the hot path is the
   per-worker deques), so a single mutex-protected FIFO is the right
   tool: it is also trivially deterministic, which the interleaving
   explorer relies on. *)
module Inject = struct
  type 'a t = {
    lock : Mutex.t;
    cond : Condition.t;
    items : 'a Queue.t;
    mutable closed : bool;
  }

  exception Closed

  let create () =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      items = Queue.create ();
      closed = false;
    }

  let push t x =
    Mutex.protect t.lock (fun () ->
        if t.closed then raise Closed;
        Queue.push x t.items;
        Condition.signal t.cond)

  let try_pop t = Mutex.protect t.lock (fun () -> Queue.take_opt t.items)

  (* blocks; [None] means closed and drained *)
  let pop t =
    Mutex.protect t.lock (fun () ->
        let rec wait () =
          match Queue.take_opt t.items with
          | Some _ as r -> r
          | None ->
            if t.closed then None
            else begin
              Condition.wait t.cond t.lock;
              wait ()
            end
        in
        wait ())

  let close t =
    Mutex.protect t.lock (fun () ->
        t.closed <- true;
        Condition.broadcast t.cond)

  let is_empty t = Mutex.protect t.lock (fun () -> Queue.is_empty t.items)

  let is_closed t = Mutex.protect t.lock (fun () -> t.closed)
end

exception Closed = Inject.Closed

(* ---------------------- promises and the pool ---------------------- *)

(* A promise is a single atomic cell: [Pending waiters] until the one
   [fulfill], then [Fulfilled v] forever.  Parking is a CAS that adds
   the awaiting fiber's continuation to the waiter list; fulfilling is
   a CAS to [Fulfilled] that takes the whole list.  Every transition
   goes through one SC atomic, which is the memory-model argument for
   cross-domain hand-off: the fulfilling domain's writes happen-before
   the CAS, which happens-before the awaiting fiber observing
   [Fulfilled] (or being resumed through a synchronized queue). *)
type 'a state =
  | Fulfilled of 'a
  | Pending of 'a waiter list

and 'a waiter = { wpool : pool; wk : ('a, unit) Effect.Deep.continuation }

and pool = {
  nw : int;
  name : string;
  deques : (unit -> unit) Deque.t array;
  injector : (unit -> unit) Inject.t;
  remaining : int Atomic.t;  (* fibers spawned and not yet finished *)
  waiting : int Atomic.t;  (* program tasks whose fiber has not started *)
  blocked : int Atomic.t;  (* fibers currently parked on a promise *)
  peak_blocked : int Atomic.t;
  fibers : int Atomic.t;  (* fibers ever spawned *)
  completed : int Atomic.t;
  suspensions : int Atomic.t;
  steals : int Atomic.t;
  errors : int Atomic.t;
  last_error : string option Atomic.t;
  (* progress stamp, bumped on every enqueue: the deadlock detector
     samples it around its scan to reject in-flight hand-offs *)
  events : int Atomic.t;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  abort_on_error : bool;
  aborted : bool Atomic.t;
  lock : Mutex.t;  (* guards [domains] and spawning (server mode) *)
  mutable domains : unit Domain.t list;
  started : int Atomic.t;  (* server workers started so far *)
  tracer : Trace.t;
  traced : bool;
}

type 'a promise = 'a state Atomic.t

type t = pool

exception Deadlock of { blocked : int }

type stats = {
  workers : int;
  started : int;
  fibers : int;
  completed : int;
  suspensions : int;
  steals : int;
  peak_blocked : int;
  blocked : int;
  errors : int;
}

(* A parked continuation bundled with the pool whose worker parked it,
   so a fulfill from anywhere (another pool's fiber, a plain thread)
   can route the resumption back to the right run queues. *)
type resumption = { rpool : pool; resume : unit -> unit }

type _ Effect.t +=
  | Sched : (unit -> unit) -> unit Effect.t
  | Await : 'a promise -> 'a Effect.t
  | Fulfill : resumption list -> unit Effect.t
  | Yield : unit Effect.t

(* Which pool/worker the current *domain* is running for.  Effect
   handlers read this instead of capturing a worker id at fiber-spawn
   time: a fiber that parks may be resumed by any worker of the pool,
   and only the domain knows whose deque it owns right now. *)
let dls : (pool * int) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let cur () = !(Domain.DLS.get dls)

let self () = match cur () with Some (_, w) -> Some w | None -> None

let bump t = Atomic.incr t.events

(* Enqueue a runnable thunk for [target]: onto the current worker's own
   deque when this domain is a worker of [target], else through the
   injector (synchronized, so cross-domain hand-off is safe). *)
let enqueue target thunk =
  (match cur () with
  | Some (p, w) when p == target -> Deque.push p.deques.(w) thunk
  | _ -> Inject.push target.injector thunk);
  bump target

let note_blocked (t : pool) =
  Atomic.incr t.suspensions;
  let b = 1 + Atomic.fetch_and_add t.blocked 1 in
  let rec upd () =
    let p = Atomic.get t.peak_blocked in
    if b > p && not (Atomic.compare_and_set t.peak_blocked p b) then upd ()
  in
  upd ()

let schedule_resumption r =
  Atomic.decr r.rpool.blocked;
  enqueue r.rpool r.resume

let is_fatal = function
  | Out_of_memory | Stack_overflow | Assert_failure _ -> true
  | _ -> false

(* Fiber error policy: fatal runtime exceptions kill the worker (and
   surface at join); anything else is counted and retained, and
   additionally aborts the whole run for one-shot program pools. *)
let wrap_body (pool : pool) f () =
  try f ()
  with e when not (is_fatal e) ->
    let bt = Printexc.get_raw_backtrace () in
    Atomic.incr pool.errors;
    Atomic.set pool.last_error (Some (Printexc.to_string e));
    if pool.abort_on_error then begin
      ignore (Atomic.compare_and_set pool.failure None (Some (e, bt)));
      Atomic.set pool.aborted true
    end

let fiber_done (pool : pool) =
  Atomic.incr pool.completed;
  Atomic.decr pool.remaining

(* Handler side of [Await]: park the fiber by CAS-ing its continuation
   into the waiter list, retrying when a racing fulfill wins (in which
   case the value is there and we resume inline — the fiber never
   counts as suspended). *)
let await_park (type a) pool (p : a promise)
    (k : (a, unit) Effect.Deep.continuation) =
  let rec park () =
    match Atomic.get p with
    | Fulfilled v -> Effect.Deep.continue k v
    | Pending ws as old ->
      yield_point "await-park";
      let parked = Pending ({ wpool = pool; wk = k } :: ws) in
      if !Hooks.lost_wakeup then begin
        (* mutation seam: a blind store loses the race with a
           concurrent fulfill — the fiber parks forever *)
        Atomic.set p parked;
        note_blocked pool
      end
      else if Atomic.compare_and_set p old parked then note_blocked pool
      else park ()
  in
  park ()

let rec handler pool =
  {
    Effect.Deep.retc = (fun () -> fiber_done pool);
    exnc =
      (fun e ->
        fiber_done pool;
        raise e);
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Sched f ->
          Some
            (fun (k : (b, unit) Effect.Deep.continuation) ->
              do_spawn pool f;
              Effect.Deep.continue k ())
        | Await p -> Some (fun k -> await_park pool p k)
        | Fulfill rs ->
          Some
            (fun k ->
              List.iter schedule_resumption rs;
              Effect.Deep.continue k ())
        | Yield ->
          Some
            (fun k ->
              enqueue pool (fun () -> Effect.Deep.continue k ()))
        | _ -> None);
  }

and fiber_thunk pool f () =
  Effect.Deep.match_with (wrap_body pool f) () (handler pool)

and do_spawn pool f =
  Atomic.incr pool.fibers;
  Atomic.incr pool.remaining;
  enqueue pool (fiber_thunk pool f)

(* --------------------------- public ops ---------------------------- *)

let promise () = Atomic.make (Pending [])

let peek p = match Atomic.get p with Fulfilled v -> Some v | Pending _ -> None

let await p =
  match Atomic.get p with
  | Fulfilled v -> v
  | Pending _ -> (
    try Effect.perform (Await p)
    with Effect.Unhandled _ ->
      invalid_arg "Fiber_exec.await: not inside a fiber")

let fulfill p v =
  let rec take () =
    match Atomic.get p with
    | Fulfilled _ -> invalid_arg "Fiber_exec.fulfill: promise fulfilled twice"
    | Pending ws as old ->
      yield_point "fulfill-take";
      if Atomic.compare_and_set p old (Fulfilled v) then ws else take ()
  in
  let ws = take () in
  if ws <> [] then begin
    (* waiters parked LIFO; resume in arrival order *)
    let rs =
      List.rev_map
        (fun { wpool; wk } ->
          { rpool = wpool; resume = (fun () -> Effect.Deep.continue wk v) })
        ws
    in
    try Effect.perform (Fulfill rs)
    with Effect.Unhandled _ ->
      (* not inside a fiber: hand off through the injectors *)
      List.iter schedule_resumption rs
  end

let spawn f =
  try Effect.perform (Sched f)
  with Effect.Unhandled _ ->
    invalid_arg "Fiber_exec.spawn: not inside a fiber (use submit)"

let yield () = try Effect.perform Yield with Effect.Unhandled _ -> ()

(* ------------------------- pool mechanics -------------------------- *)

let make_pool ~nw ~name ~abort_on_error ~tracer () =
  {
    nw;
    name;
    deques = Array.init nw (fun _ -> Deque.create ());
    injector = Inject.create ();
    remaining = Atomic.make 0;
    waiting = Atomic.make 0;
    blocked = Atomic.make 0;
    peak_blocked = Atomic.make 0;
    fibers = Atomic.make 0;
    completed = Atomic.make 0;
    suspensions = Atomic.make 0;
    steals = Atomic.make 0;
    errors = Atomic.make 0;
    last_error = Atomic.make None;
    events = Atomic.make 0;
    failure = Atomic.make None;
    abort_on_error;
    aborted = Atomic.make false;
    lock = Mutex.create ();
    domains = [];
    started = Atomic.make 0;
    tracer;
    traced = Trace.enabled tracer;
  }

let n_workers t = t.nw

let name t = t.name

(* [remaining] first: once no fiber is live, [waiting] is final *)
let remaining t =
  let live = Atomic.get t.remaining in
  live + Atomic.get t.waiting

let finished t = Atomic.get t.remaining = 0 && Atomic.get t.waiting = 0

let stats (t : pool) =
  {
    workers = t.nw;
    started = Atomic.get t.started;
    fibers = Atomic.get t.fibers;
    completed = Atomic.get t.completed;
    suspensions = Atomic.get t.suspensions;
    steals = Atomic.get t.steals;
    peak_blocked = Atomic.get t.peak_blocked;
    blocked = Atomic.get t.blocked;
    errors = Atomic.get t.errors;
  }

let last_error t = Atomic.get t.last_error

let try_pop t wid =
  match Deque.pop t.deques.(wid) with
  | Some f ->
    f ();
    true
  | None -> false

let try_steal t ~thief ~victim =
  match Deque.steal t.deques.(victim) with
  | Some f ->
    Atomic.incr t.steals;
    if t.traced then
      Trace.emit_now t.tracer ~worker:thief
        (Nd_trace.Event.Steal_success { victim; vertex = None });
    f ();
    true
  | None -> false

let try_advance t wid =
  try_pop t wid
  || (let rec go i =
        i < t.nw
        && (try_steal t ~thief:wid ~victim:((wid + i) mod t.nw) || go (i + 1))
      in
      go 1)
  ||
  match Inject.try_pop t.injector with
  | Some f ->
    f ();
    true
  | None -> false

let queues_empty t =
  Inject.is_empty t.injector
  && Array.for_all (fun d -> Deque.size d = 0) t.deques

(* Exact in the single-domain explorer: between scheduler steps no
   fiber is mid-flight, so parked = live and empty queues mean no one
   can ever run again — and no task can be enabled. *)
let stalled t =
  (* [remaining] is read once: a fiber finishing between two reads would
     have a completed run compare 0 parked against 0 live *)
  let live = Atomic.get t.remaining in
  !Hooks.stall_window ();
  (live > 0 || Atomic.get t.waiting > 0)
  && Atomic.get t.blocked = live
  && queues_empty t

(* Multi-domain deadlock check: [stalled] alone can race an in-flight
   hand-off, but any hand-off bumps [events], and the performer of an
   in-flight enqueue is itself a live unblocked fiber — sampling the
   stamp around the scan rejects the window. *)
let deadlocked t =
  let e0 = Atomic.get t.events in
  stalled t && Atomic.get t.events = e0

(* --------------------- one-shot program pools ---------------------- *)

(* A compiled program's dependences are all known before it runs, so a
   task's fiber starts only when its in-degree reaches zero, by the
   counting rule of [Executor.Engine.run_task]: the sources are seeded
   before any worker domain exists (so pushing to any deque is safe),
   and a finishing task decrements each successor's counter (skipping
   the atomic for a single predecessor) and spawns the ones it enables.
   Only promises awaited inside strand actions still park. *)
let seed_program (pool : pool) (g : Executor.task_graph) =
  let succ_off = g.Executor.tg_succ_off and succ_tgt = g.Executor.tg_succ_tgt in
  let indeg = g.Executor.tg_indeg in
  let counters = Array.map Atomic.make indeg in
  let worker () = match self () with Some w -> w | None -> 0 in
  let rec body task () =
    g.Executor.tg_exec (worker ()) task;
    for i = succ_off.(task) to succ_off.(task + 1) - 1 do
      let s = succ_tgt.(i) in
      if indeg.(s) = 1 || Atomic.fetch_and_add counters.(s) (-1) = 1 then begin
        do_spawn pool (body s);
        Atomic.decr pool.waiting;
        if pool.traced then
          Trace.emit_now pool.tracer ~worker:(worker ())
            (Nd_trace.Event.Fire { target = s; level = 0 })
      end
    done
  in
  let sources = ref 0 in
  for task = 0 to g.Executor.tg_tasks - 1 do
    if indeg.(task) = 0 then begin
      Atomic.incr pool.fibers;
      Atomic.incr pool.remaining;
      Deque.push pool.deques.(!sources mod pool.nw) (fiber_thunk pool (body task));
      incr sources
    end
  done;
  Atomic.set pool.waiting (g.Executor.tg_tasks - !sources);
  bump pool;
  if pool.traced then
    Trace.emit_now pool.tracer ~worker:0 (Nd_trace.Event.Spawn { count = !sources })

let make_engine ?workers ?grain ?(tracer = Trace.null) program =
  let nw =
    match workers with Some w -> max 1 w | None -> Executor.default_workers ()
  in
  let pool = make_pool ~nw ~name:"fiber" ~abort_on_error:true ~tracer () in
  seed_program pool (Executor.task_graph ?grain ~tracer program);
  pool

let with_worker_dls pool wid f =
  let cell = Domain.DLS.get dls in
  let saved = !cell in
  cell := Some (pool, wid);
  Fun.protect ~finally:(fun () -> cell := saved) f

let worker_loop (pool : pool) ~stopped wid =
  with_worker_dls pool wid @@ fun () ->
  let cap = Executor.spin_cap ~nw:pool.nw in
  let spin = ref 0 in
  while not (finished pool || Atomic.get pool.aborted || stopped ()) do
    if try_advance pool wid then spin := 0
    else if !spin > 32 && deadlocked pool then begin
      let blocked = Atomic.get pool.blocked + Atomic.get pool.waiting in
      ignore
        (Atomic.compare_and_set pool.failure None
           (Some (Deadlock { blocked }, Printexc.get_callstack 0)));
      Atomic.set pool.aborted true
    end
    else begin
      if pool.traced && !spin = 0 then
        Trace.emit_now pool.tracer ~worker:wid
          (Nd_trace.Event.Steal_attempt { victim = -1 });
      Executor.backoff ~spin_cap:cap spin
    end
  done

(* an exception escaping a worker (a fatal fiber error) stops the crew
   call, so the other workers see [stopped] instead of spinning on a
   count that will never reach zero *)
let run_program ?workers ?grain ?tracer program =
  let pool = make_engine ?workers ?grain ?tracer program in
  Executor.crew ~keep:true pool.nw (fun stopped wid ->
      worker_loop pool ~stopped wid);
  match Atomic.get pool.failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> stats pool

let run ?workers ?grain ?tracer program =
  ignore (run_program ?workers ?grain ?tracer program)

(* ------------------------ long-lived pools ------------------------- *)

let create ?workers ?(name = "fiber") () =
  let nw =
    match workers with Some w -> max 1 w | None -> Executor.default_workers ()
  in
  make_pool ~nw ~name ~abort_on_error:false ~tracer:Trace.null ()

let server_loop (pool : pool) wid =
  with_worker_dls pool wid @@ fun () ->
  let cap = Executor.spin_cap ~nw:pool.nw in
  let rec loop () =
    if try_advance pool wid then loop ()
    else
      match Inject.pop pool.injector with
      | Some f ->
        f ();
        loop ()
      | None ->
        (* closed and drained: finish the fibers still in flight *)
        let spin = ref 0 in
        while Atomic.get pool.remaining > 0 && not (deadlocked pool) do
          if try_advance pool wid then spin := 0
          else Executor.backoff ~spin_cap:cap spin
        done
  in
  loop ()

(* Workers start on demand: worker [k+1] when the live fibers, not
   counting the one being submitted, already number at least [k], the
   workers started, so a submission that could find every started
   worker busy gets a new one.  In OCaml 5.1 every idle domain adds to
   the cost of every minor GC (DESIGN.md §7), so traffic that never
   overlaps keeps one worker.  The check reads atomics only; [lock] is
   taken to spawn, and under it a closed pool never spawns. *)
let start_on_demand t =
  let live = Atomic.get t.remaining in
  let needed () =
    let k = Atomic.get t.started in
    k < t.nw && live >= k
  in
  if needed () then
    Mutex.protect t.lock (fun () ->
        if needed () && not (Inject.is_closed t.injector) then begin
          let wid = Atomic.get t.started in
          t.domains <- Domain.spawn (fun () -> server_loop t wid) :: t.domains;
          Atomic.set t.started (wid + 1)
        end)

let submit (t : pool) job =
  start_on_demand t;
  Atomic.incr t.fibers;
  Atomic.incr t.remaining;
  (try Inject.push t.injector (fiber_thunk t job)
   with Closed ->
     Atomic.decr t.fibers;
     Atomic.decr t.remaining;
     raise Closed);
  bump t

let shutdown t =
  Inject.close t.injector;
  let ds =
    Mutex.protect t.lock (fun () ->
        let ds = t.domains in
        t.domains <- [];
        ds)
  in
  List.iter Domain.join ds
