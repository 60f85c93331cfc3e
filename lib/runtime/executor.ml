module Dag = Nd_dag.Dag
module Trace = Nd_trace.Collector
open Nd

let default_workers () =
  match
    Option.bind (Sys.getenv_opt "NDSIM_WORKERS") (fun s ->
        int_of_string_opt (String.trim s))
  with
  | Some w when w >= 1 -> w
  | Some _ | None -> max 1 (min 8 (Domain.recommended_domain_count ()))

(* Capped exponential backoff for idle spin loops, shared by both
   executors.  Phase 1: doubling bursts of [cpu_relax] hints.  Phase 2:
   short OS sleeps (a blocking section, so a sleeper neither burns the
   core nor delays stop-the-world GC barriers).  [spin_cap] is the
   failed-sweep count at which phase 2 starts: when the run is
   oversubscribed (more domains than cores) spinning is poison — every
   minor-GC barrier must wait for each spinning domain to be
   {e scheduled} to reach a poll point — so idle workers go to sleep
   almost immediately. *)
let spin_cap ~nw =
  if nw > Domain.recommended_domain_count () then 4 else 512

let backoff ~spin_cap spin =
  incr spin;
  if !spin > spin_cap then
    (* doubling sleeps from 50us capped at 1ms: long enough that a
       starved core drains real work between wake-ups, short enough
       that a newly enabled DAG ladder is picked up promptly *)
    Unix.sleepf
      (min 1e-3 (5e-5 *. float_of_int (1 lsl min 5 ((!spin - spin_cap) / 16))))
  else if !spin > 64 then begin
    let n = min 512 (1 lsl min 9 (!spin / 64)) in
    for _ = 1 to n do
      Domain.cpu_relax ()
    done
  end

(* ------------------------------- crew ------------------------------ *)

(* One crew of helper domains serves every runtime entry point.  A
   helper waits on its own mailbox for a command; a call borrows
   [nw - 1] helpers (parked ones first, else fresh spawns, so a nested
   call never waits for a busy helper) and hands them back once every
   body has returned.  On OCaml 5.1 a domain that exits drops its cached
   fiber stacks, so a helper that ever served a [~keep] call parks for
   the next call, up to [max 1 (default_workers () - 1)] of them; every
   other helper is joined at the end of its call, because a parked
   domain turns each minor GC into a two-domain stop-the-world.  The
   caller parks a helper before it returns, so a back-to-back call
   finds it idle.  See DESIGN.md §7, "Worker domains". *)

type command = Wait | Run of (unit -> unit) | Quit

type mailbox = {
  lock : Mutex.t;
  wake : Condition.t;
  mutable command : command;
}

type helper = { box : mailbox; domain : unit Domain.t; mutable keep : bool }

let rec serve box =
  let command =
    Mutex.protect box.lock (fun () ->
        while box.command == Wait do
          Condition.wait box.wake box.lock
        done;
        let c = box.command in
        box.command <- Wait;
        c)
  in
  match command with
  | Run f ->
    f ();
    serve box
  | Quit | Wait -> ()

let send h c =
  Mutex.protect h.box.lock (fun () ->
      h.box.command <- c;
      Condition.signal h.box.wake)

let idle : helper list ref = ref []

let idle_lock = Mutex.create ()

let borrow () =
  match
    Mutex.protect idle_lock (fun () ->
        match !idle with
        | h :: rest ->
          idle := rest;
          Some h
        | [] -> None)
  with
  | Some h -> h
  | None ->
    let box =
      { lock = Mutex.create (); wake = Condition.create (); command = Wait }
    in
    { box; domain = Domain.spawn (fun () -> serve box); keep = false }

let release h =
  let cap = max 1 (default_workers () - 1) in
  let parked =
    h.keep
    && Mutex.protect idle_lock (fun () ->
           let room = List.length !idle < cap in
           if room then idle := h :: !idle;
           room)
  in
  if not parked then begin
    send h Quit;
    Domain.join h.domain
  end

let crew ?(keep = false) nw body =
  if nw <= 1 then body (fun () -> false) 0
  else begin
    let failure = Atomic.make None in
    let work = body (fun () -> Atomic.get failure <> None) in
    let guarded wid =
      try work wid
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set failure None (Some (e, bt)))
    in
    let helpers = ref [] in
    (try
       for _ = 2 to nw do
         helpers := borrow () :: !helpers
       done
     with e ->
       List.iter release !helpers;
       raise e);
    (* backtrace recording is per domain and a spawned domain does not
       inherit it: each run takes the caller's setting *)
    let record = Printexc.backtrace_status () in
    let lock = Mutex.create () and all_done = Condition.create () in
    let pending = ref (nw - 1) in
    List.iteri
      (fun i h ->
        if keep then h.keep <- true;
        send h
          (Run
             (fun () ->
               Printexc.record_backtrace record;
               guarded (i + 1);
               Mutex.protect lock (fun () ->
                   decr pending;
                   if !pending = 0 then Condition.signal all_done))))
      !helpers;
    guarded 0;
    Mutex.protect lock (fun () ->
        while !pending > 0 do
          Condition.wait all_done lock
        done);
    List.iter release !helpers;
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(* --------------------------- parallel for -------------------------- *)

(* dynamic work sharing: iterations are claimed one at a time off a
   shared counter, so uneven iteration costs balance automatically (the
   experiment suite's phases differ by orders of magnitude) *)
let parallel_for ?workers n f =
  if n > 0 then begin
    let nw =
      max 1
        (min n (match workers with Some w -> w | None -> default_workers ()))
    in
    let next = Atomic.make 0 in
    crew nw (fun stopped wid ->
        let rec loop () =
          if not (stopped ()) then begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              f wid i;
              loop ()
            end
          end
        in
        loop ())
  end

(* ------------------------- strand execution ------------------------ *)

let run_action s = match s.Strand.action with Some f -> f () | None -> ()

(* execute one strand, with begin/end events when traced and the strand
   carries work (zero-work sync strands are not interesting intervals) *)
let exec_strand ~tracer ~traced wid v s =
  if traced && s.Strand.work > 0 then begin
    Trace.emit_now tracer ~worker:wid
      (Nd_trace.Event.Strand_begin
         { vertex = v; work = s.Strand.work; label = s.Strand.label });
    run_action s;
    Trace.emit_now tracer ~worker:wid (Nd_trace.Event.Strand_end { vertex = v })
  end
  else run_action s

(* execute program leaves [lo, hi) serially, in tree order.  Valid for
   any subtree: every DAG edge between two leaves of one subtree points
   forward in leaf order (Seq chains by construction; fire edges go from
   the fire's source child to its sink child, which is later in tree
   order), so tree order is a topological order of the sub-DAG. *)
let exec_leaf_range program ~tracer ~traced wid lo hi =
  for i = lo to hi - 1 do
    match Program.kind_of program (Program.leaf_node program i) with
    | Program.Leaf s ->
      exec_strand ~tracer ~traced wid (Program.leaf_vertex program i) s
    | Program.Seq | Program.Par | Program.Fire _ -> assert false
  done

(* ------------------------- dataflow executor ----------------------- *)

(* The generic dependence-counting engine: tasks are ints, adjacency is
   CSR int arrays, ready tasks flow through per-worker Chase-Lev deques.
   The wake-up loop is allocation-free: an int-array scan plus one
   atomic decrement per multi-predecessor edge (single-predecessor
   targets skip the RMW entirely — the one completing predecessor is
   the unique enabler).

   The engine is a first-class value (exposed in the interface) so the
   conformance harness can drive the exact same wake-up loop and deque
   discipline from a single-domain controlled scheduler: [run_dataflow]
   advances it with one domain per worker, [Nd_check.Explore] advances
   it with one fiber per worker and picks the interleaving itself. *)
module Engine = struct
  type t = {
    n : int;
    nw : int;
    counters : int Atomic.t array;
    remaining : int Atomic.t;
    deques : int Deque.t array;
    succ_off : int array;
    succ_tgt : int array;
    indeg0 : int array;
    exec : int -> int -> unit;
    steal_vertex : int -> int option;
    tracer : Trace.t;
    traced : bool;
  }

  let make_raw ~nw ~tracer ~traced ~succ_off ~succ_tgt ~indeg0 ~exec
      ~steal_vertex =
    let n = Array.length indeg0 in
    let eng =
      {
        n;
        nw;
        counters = Array.map Atomic.make indeg0;
        remaining = Atomic.make n;
        deques = Array.init nw (fun _ -> Deque.create ());
        succ_off;
        succ_tgt;
        indeg0;
        exec;
        steal_vertex;
        tracer;
        traced;
      }
    in
    let seed_slot = ref 0 in
    for v = 0 to n - 1 do
      if indeg0.(v) = 0 then begin
        Deque.push eng.deques.(!seed_slot mod nw) v;
        incr seed_slot
      end
    done;
    if traced then
      Trace.emit_now tracer ~worker:0
        (Nd_trace.Event.Spawn { count = !seed_slot });
    eng

  let n_workers eng = eng.nw

  let n_tasks eng = eng.n

  let remaining eng = Atomic.get eng.remaining

  let finished eng = Atomic.get eng.remaining = 0

  let run_task eng wid v =
    eng.exec wid v;
    Atomic.decr eng.remaining;
    let lo = Array.unsafe_get eng.succ_off v
    and hi = Array.unsafe_get eng.succ_off (v + 1) in
    for i = lo to hi - 1 do
      let s = Array.unsafe_get eng.succ_tgt i in
      let ready =
        Array.unsafe_get eng.indeg0 s = 1
        || Atomic.fetch_and_add (Array.unsafe_get eng.counters s) (-1) = 1
      in
      if ready then begin
        Deque.push (Array.unsafe_get eng.deques wid) s;
        if eng.traced then
          Trace.emit_now eng.tracer ~worker:wid
            (Nd_trace.Event.Fire { target = s; level = 0 })
      end
    done

  let try_pop eng wid =
    match Deque.pop eng.deques.(wid) with
    | Some v ->
      run_task eng wid v;
      true
    | None -> false

  let try_steal eng ~thief ~victim =
    match Deque.steal eng.deques.(victim) with
    | Some v ->
      if eng.traced then
        Trace.emit_now eng.tracer ~worker:thief
          (Nd_trace.Event.Steal_success
             { victim; vertex = eng.steal_vertex v });
      run_task eng thief v;
      true
    | None -> false
end

let act program ~tracer ~traced wid v =
  let n = Program.vertex_owner program v in
  if n >= 0 then
    match Program.kind_of program n with
    | Program.Leaf s -> exec_strand ~tracer ~traced wid v s
    | Program.Seq | Program.Par | Program.Fire _ -> ()

(* The compiled, backend-neutral view of one run: tasks in a CSR
   dependency graph plus the closure that executes one task.  Both the
   dep-counter engine and the fiber backend consume this, so a grain
   setting or a tracer means exactly the same thing under every
   backend.  [indeg] is read-only shared state: consumers must copy
   before mutating (the engine maps it into fresh atomics). *)
type task_graph = {
  tg_tasks : int;
  tg_succ_off : int array;
  tg_succ_tgt : int array;
  tg_indeg : int array;
  tg_exec : int -> int -> unit;
  tg_steal_vertex : int -> int option;
}

(* Under a grain the plan is [Program.coarsen]'s cut contracted: a
   task part runs its subtree's leaves serially, a glue part is a sync
   vertex and runs nothing.  A cyclic plan would deadlock the workers,
   which is much harder to diagnose than [Dag.topo_order]'s [Cycle]. *)
let task_graph ?(grain = 0) ?(tracer = Trace.null) program =
  let traced = Trace.enabled tracer in
  if grain > 0 then begin
    let d = Program.coarsen program ~grain in
    let plan = Program.contract program d in
    ignore (Dag.topo_order plan);
    let c = Dag.csr plan and n_tasks = Array.length d.Program.tasks in
    let sync = Array.make (d.Program.n_parts - n_tasks) 0 in
    Array.iteri
      (fun v t -> if t >= n_tasks then sync.(t - n_tasks) <- v)
      d.Program.task_of_vertex;
    {
      tg_tasks = d.Program.n_parts;
      tg_succ_off = c.Dag.succ_off;
      tg_succ_tgt = c.Dag.succ_tgt;
      tg_indeg = c.Dag.indeg;
      tg_exec =
        (fun wid t ->
          if t < n_tasks then
            let lo, hi = Program.leaf_range program d.Program.tasks.(t) in
            exec_leaf_range program ~tracer ~traced wid lo hi);
      tg_steal_vertex =
        (fun t -> if t < n_tasks then None else Some sync.(t - n_tasks));
    }
  end
  else
    let c = Dag.csr (Program.dag program) in
    {
      tg_tasks = Array.length c.Dag.indeg;
      tg_succ_off = c.Dag.succ_off;
      tg_succ_tgt = c.Dag.succ_tgt;
      tg_indeg = c.Dag.indeg;
      tg_exec = act program ~tracer ~traced;
      tg_steal_vertex = (fun v -> Some v);
    }

let make_engine ?workers ?grain ?(tracer = Trace.null) program =
  let nw = match workers with Some w -> max 1 w | None -> default_workers () in
  let traced = Trace.enabled tracer in
  let g = task_graph ?grain ~tracer program in
  Engine.make_raw ~nw ~tracer ~traced ~succ_off:g.tg_succ_off
    ~succ_tgt:g.tg_succ_tgt ~indeg0:g.tg_indeg ~exec:g.tg_exec
    ~steal_vertex:g.tg_steal_vertex

let run_dataflow ?workers ?grain ?(tracer = Trace.null) program =
  let eng = make_engine ?workers ?grain ~tracer program in
  let nw = Engine.n_workers eng in
  let traced = Trace.enabled tracer in
  let cap = spin_cap ~nw in
  crew nw (fun stopped wid ->
      let spin = ref 0 in
      while not (Engine.finished eng || stopped ()) do
        if Engine.try_pop eng wid then spin := 0
        else begin
          let stolen = ref false in
          let i = ref 1 in
          while (not !stolen) && !i < nw do
            if Engine.try_steal eng ~thief:wid ~victim:((wid + !i) mod nw)
            then begin
              stolen := true;
              spin := 0
            end;
            incr i
          done;
          if not !stolen then begin
            (* record only the idle-period start, not every failed sweep *)
            if traced && !spin = 0 then
              Trace.emit_now tracer ~worker:wid
                (Nd_trace.Event.Steal_attempt { victim = -1 });
            backoff ~spin_cap:cap spin
          end
        end
      done);
  assert (Engine.finished eng)

(* ------------------------- fork-join executor ---------------------- *)

type job = { work : int -> unit; completed : bool Atomic.t }

type ctx = {
  deques : job Deque.t array;
  nw : int;
  finished : bool Atomic.t;
  tracer : Trace.t;
  traced : bool;
  grain : int;
  spin_cap : int;
  program : Program.t;
  stopped : unit -> bool;
}

(* Raised by a worker that finds its call stopped: the crew re-raises
   the failure that stopped it, so this only unwinds the wait the worker
   was in (a join on a job a failed worker will never complete). *)
exception Stopped

let help ctx wid =
  match Deque.pop ctx.deques.(wid) with
  | Some j ->
    j.work wid;
    Atomic.set j.completed true;
    true
  | None ->
    let rec try_steal i =
      if i >= ctx.nw then false
      else
        let victim = (wid + i) mod ctx.nw in
        match Deque.steal ctx.deques.(victim) with
        | Some j ->
          if ctx.traced then
            Trace.emit_now ctx.tracer ~worker:wid
              (Nd_trace.Event.Steal_success { victim; vertex = None });
          j.work wid;
          Atomic.set j.completed true;
          true
        | None -> try_steal (i + 1)
    in
    try_steal 1

(* help-first waiting: run other work until [cond] holds *)
let help_until ctx wid cond =
  let spin = ref 0 in
  while not (cond ()) do
    if ctx.stopped () then raise Stopped;
    if help ctx wid then spin := 0
    else begin
      if ctx.traced && !spin = 0 then
        Trace.emit_now ctx.tracer ~worker:wid
          (Nd_trace.Event.Steal_attempt { victim = -1 });
      backoff ~spin_cap:ctx.spin_cap spin
    end
  done

(* walk the program's node array (the spawn tree annotated with work
   counts) rather than the raw spawn tree: work annotations drive the
   grain cutoff, and leaf nodes know their DAG vertex so strand events
   carry real vertex ids. *)
let rec exec_node ctx wid n =
  let p = ctx.program in
  let cs = Program.children p n in
  if ctx.grain > 0 && cs <> [||] && Program.work_of_node p n <= ctx.grain then begin
    let lo, hi = Program.leaf_range p n in
    exec_leaf_range p ~tracer:ctx.tracer ~traced:ctx.traced wid lo hi
  end
  else
    match Program.kind_of p n with
    | Program.Leaf s ->
      exec_strand ~tracer:ctx.tracer ~traced:ctx.traced wid
        (Program.begin_vertex p n) s
    | Program.Seq -> Array.iter (exec_node ctx wid) cs
    | Program.Fire _ ->
      (* NP projection: serial composition *)
      exec_node ctx wid cs.(0);
      exec_node ctx wid cs.(1)
    | Program.Par ->
      if cs <> [||] then begin
        let rest = Array.sub cs 1 (Array.length cs - 1) in
        let jobs =
          Array.map
            (fun c ->
              let j =
                {
                  work = (fun w -> exec_node ctx w c);
                  completed = Atomic.make false;
                }
              in
              Deque.push ctx.deques.(wid) j;
              j)
            rest
        in
        if ctx.traced && Array.length rest > 0 then
          Trace.emit_now ctx.tracer ~worker:wid
            (Nd_trace.Event.Spawn { count = Array.length rest });
        exec_node ctx wid cs.(0);
        Array.iter
          (fun j -> help_until ctx wid (fun () -> Atomic.get j.completed))
          jobs
      end

let run_fork_join ?workers ?(grain = 0) ?(tracer = Trace.null) program =
  let nw = match workers with Some w -> max 1 w | None -> default_workers () in
  crew nw (fun stopped ->
      let ctx =
        {
          deques = Array.init nw (fun _ -> Deque.create ());
          nw;
          finished = Atomic.make false;
          tracer;
          traced = Trace.enabled tracer;
          grain;
          spin_cap = spin_cap ~nw;
          program;
          stopped;
        }
      in
      function
      | 0 ->
        exec_node ctx 0 (Program.root program);
        Atomic.set ctx.finished true
      | wid -> help_until ctx wid (fun () -> Atomic.get ctx.finished))
