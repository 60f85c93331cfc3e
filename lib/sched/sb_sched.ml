module Dag = Nd_dag.Dag
module Is = Nd_util.Interval_set
module Heap = Nd_util.Heap
module Pmh = Nd_pmh.Pmh
open Nd

type mode = Coarse | Fine

type accounting = Rho | Lru

type stats = {
  time : int;
  work : int;
  misses : int array;
  miss_cost : int;
  space_hwm : int;
  busy : int;
  n_anchors : int;
  n_procs : int;
  miss_table : Nd_mem.Miss_table.t option;
}

exception Deadlock of string

type anchor = {
  a_level : int;  (* cache level; n_levels+1 for the memory root *)
  a_task : int;  (* task index in its level's decomposition; -1 = root *)
  a_cache : int;
  a_subclusters : int list;
  a_queue : int Queue.t;  (* ready children: task indices at a_level-1 *)
}

let utilization s =
  (* an empty run (zero time or zero processors) kept no processor busy:
     report 0., not the old vacuous 1. *)
  if s.time = 0 || s.n_procs = 0 then 0.
  else float_of_int s.busy /. (float_of_int s.time *. float_of_int s.n_procs)

let pp_stats ppf s =
  let util =
    if s.time = 0 || s.n_procs = 0 then "n/a"
    else Printf.sprintf "%.3f" (utilization s)
  in
  Format.fprintf ppf
    "time=%d work=%d miss_cost=%d space_hwm=%d util=%s anchors=%d misses=[%s]"
    s.time s.work s.miss_cost s.space_hwm util s.n_anchors
    (String.concat ";" (Array.to_list (Array.map string_of_int s.misses)))

(* [off.(i)] holds slot [i]'s count, for [i < n]: make each count the
   end of its slot's slice, and [off.(n)] the total.  A fill that steps
   a slot's end back for each entry it places leaves it at the slice's
   start, so the array ends as CSR offsets with no cursor copy. *)
let slice_ends off n =
  for i = 1 to n - 1 do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  if n > 0 then off.(n) <- off.(n - 1)

(* ---- level tables ---- *)

(* Level j (1..h) is the program's cut at m_j = max 1 ⌊σ·M_j⌋, its
   tasks in DFS order.  The m_j never decrease, so the levels nest
   ({!Program.decomposition}): a level-j task lies inside one
   level-(j+1) task, and the level-(l-1) tasks inside a level-l task
   are one ascending index range.  A task's parent, children and atoms
   are lookups.  Every (level, task) pair has one global id, so
   per-task state lives in flat arrays. *)
type levels = {
  program : Program.t;
  h : int;
  m_of : int array;  (* m_j at j - 1 *)
  decomp : Program.decomposition array;  (* level j's cut at j - 1 *)
  goff : int array;  (* global id of level j's task 0 at j - 1; all tasks at h *)
  glev : int array;  (* global id -> level *)
}

let levels ~sigma program machine =
  let h = Pmh.n_levels machine in
  let m_of =
    Array.init h (fun i ->
        max 1 (int_of_float (sigma *. float_of_int (Pmh.size machine ~level:(i + 1)))))
  in
  let decomp = Array.map (fun m -> Program.decompose program ~m) m_of in
  let goff = Array.make (h + 1) 0 in
  for i = 0 to h - 1 do
    goff.(i + 1) <- goff.(i) + Array.length decomp.(i).Program.tasks
  done;
  let glev = Array.make (max 1 goff.(h)) 0 in
  for j = 1 to h do
    Array.fill glev goff.(j - 1) (goff.(j) - goff.(j - 1)) j
  done;
  { program; h; m_of; decomp; goff; glev }

let n_tasks lv j = Array.length lv.decomp.(j - 1).Program.tasks

let task_node lv j ti = lv.decomp.(j - 1).Program.tasks.(ti)

let task_size lv j ti = Program.size lv.program (task_node lv j ti)

let gid lv j ti = lv.goff.(j - 1) + ti

(* DAG vertex [v]'s level-j part *)
let tov lv j v = lv.decomp.(j - 1).Program.task_of_vertex.(v)

(* the level-j task holding node [n]: a task root at any level up to j
   has one *)
let ton lv j n = lv.decomp.(j - 1).Program.task_of_node.(n)

(* the level-(l-1) tasks inside level-l task [t], first and last *)
let children lv l t =
  let lo, hi = Program.leaf_range lv.program (task_node lv l t) in
  let holding i = ton lv (l - 1) (Program.leaf_node lv.program i) in
  (holding lo, holding (hi - 1))

(* ---- event tables ---- *)

(* Events: fine node [f] (a level-1 task, or a glue vertex of the
   level-1 cut) fired is [f]; level-j task [ti] done (j >= 2) is
   [fine_n + gid j ti].  The glue CSR lists each fine node's glue
   targets, ascending, and [glue_pred] counts each glue vertex's
   sources; the subscriber CSR lists each event's dependent tasks, and
   [dep_count] counts each task's events.  The run counts both down. *)
type events = {
  fine_n : int;
  glue_off : int array;
  glue_tgt : int array;
  glue_pred : int array;
  subs_off : int array;
  subs_tgt : int array;
  dep_count : int array;
}

(* [walk] meets every distinct pair once, in edge order; it runs twice,
   to count and then to fill arrays of their final size.  Vertices are
   numbered in post-order, so a target's repeated pairs are adjacent in
   vertex order, and a stamp holding each target's last source drops
   them (DESIGN §10.2).  Subscriber slices fill from their ends, newest
   pair first: the order the event loop has always fired them in. *)
let event_tables lv mode =
  let h = lv.h and tcount = lv.goff.(lv.h) in
  let dag = Program.dag lv.program in
  let n1 = n_tasks lv 1 and fine_n = lv.decomp.(0).Program.n_parts in
  let fine_id = tov lv 1 in
  let n_events = fine_n + tcount in
  let csr = Dag.csr dag in
  let glue_last = Array.make fine_n (-1) in
  let dep_last = Array.make (max 1 tcount) (-1) in
  let walk glue dep =
    Array.fill glue_last 0 fine_n (-1);
    Array.fill dep_last 0 (Array.length dep_last) (-1);
    for u = 0 to Dag.n_vertices dag - 1 do
      let fu = fine_id u in
      for k = csr.Dag.succ_off.(u) to csr.Dag.succ_off.(u + 1) - 1 do
        let v = csr.Dag.succ_tgt.(k) in
        let fv = fine_id v in
        if fu <> fv && fv >= n1 && glue_last.(fv) <> fu then begin
          glue_last.(fv) <- fu;
          glue fu fv
        end;
        for j = 1 to h do
          let tv = tov lv j v in
          if tv < n_tasks lv j then begin
            let tu = tov lv j u in
            if tu <> tv then begin
              let es =
                if mode = Coarse && j < h then begin
                  let pu = tov lv (j + 1) u and pv = tov lv (j + 1) v in
                  let nt = n_tasks lv (j + 1) in
                  if pu < nt && pv < nt && pu <> pv then fine_n + gid lv (j + 1) pu
                  else fine_id u
                end
                else fine_id u
              in
              let d = gid lv j tv in
              if dep_last.(d) <> es then begin
                dep_last.(d) <- es;
                dep es d
              end
            end
          end
        done
      done
    done
  in
  let glue_off = Array.make (fine_n + 1) 0 and glue_pred = Array.make fine_n 0 in
  let subs_off = Array.make (n_events + 1) 0 in
  let dep_count = Array.make (max 1 tcount) 0 in
  walk
    (fun fu fv ->
      glue_off.(fu) <- glue_off.(fu) + 1;
      glue_pred.(fv) <- glue_pred.(fv) + 1)
    (fun es d ->
      subs_off.(es) <- subs_off.(es) + 1;
      dep_count.(d) <- dep_count.(d) + 1);
  slice_ends glue_off fine_n;
  slice_ends subs_off n_events;
  let glue_tgt = Array.make glue_off.(fine_n) 0 in
  let subs_tgt = Array.make subs_off.(n_events) 0 in
  walk
    (fun fu fv ->
      glue_off.(fu) <- glue_off.(fu) - 1;
      glue_tgt.(glue_off.(fu)) <- fv)
    (fun es d ->
      subs_off.(es) <- subs_off.(es) - 1;
      subs_tgt.(subs_off.(es)) <- d);
  (* a glue slice holds a handful of targets: insertion sort *)
  for f = 0 to fine_n - 1 do
    for k = glue_off.(f) + 1 to glue_off.(f + 1) - 1 do
      let x = glue_tgt.(k) and i = ref k in
      while !i > glue_off.(f) && glue_tgt.(!i - 1) > x do
        glue_tgt.(!i) <- glue_tgt.(!i - 1);
        decr i
      done;
      glue_tgt.(!i) <- x
    done
  done;
  { fine_n; glue_off; glue_tgt; glue_pred; subs_off; subs_tgt; dep_count }

(* ---- one run's state ---- *)

type t = {
  lv : levels;
  ev : events;
  machine : Pmh.t;
  tracer : Nd_trace.Collector.t;
  traced : bool;
  waiting : bool array;  (* per global id: not yet queued, run or done *)
  atoms_in : int array;  (* per global id at levels >= 2: atoms not done *)
  free_space : int array array;  (* anchoring space left per level-j cache, at j - 1 *)
  owner : anchor option array array;  (* the anchor a level-j cache is allotted to *)
  root : anchor;
  anchor_at : anchor option array;  (* per global id *)
  mutable n_anchors : int;
  mutable live_space : int;  (* anchored task sizes plus running atoms' *)
  mutable space_hwm : int;
  visited : Is.t ref array;  (* per global id: the words its strands touched *)
  lru : Nd_mem.Lru_bank.t option;  (* inline Lru accounting only *)
  misses : int array;
  mutable miss_cost : int;
  trace : Nd_mem.Shard_sim.Trace.t option;  (* replayed after the run *)
  heap : int Heap.t;  (* processor wake-ups *)
  idle : bool array;
  mutable now : int;
  mutable cur_proc : int;  (* the processor whose wake-up is handled *)
  mutable done_atoms : int;
}

let start ~sigma ~mode ~accounting ~sim_workers ~tracer program machine =
  let lv = levels ~sigma program machine in
  let h = lv.h and tcount = max 1 lv.goff.(lv.h) in
  let per_cache x =
    Array.init h (fun i -> Array.make (Pmh.n_caches machine ~level:(i + 1)) (x i))
  in
  let root =
    {
      a_level = h + 1;
      a_task = -1;
      a_cache = 0;
      a_subclusters = List.init (Pmh.n_caches machine ~level:h) Fun.id;
      a_queue = Queue.create ();
    }
  in
  let owner = per_cache (fun _ -> None) in
  List.iter (fun c -> owner.(h - 1).(c) <- Some root) root.a_subclusters;
  let atoms_in = Array.make tcount 0 in
  for a = 0 to n_tasks lv 1 - 1 do
    let node = task_node lv 1 a in
    for j = 2 to h do
      let g = gid lv j (ton lv j node) in
      atoms_in.(g) <- atoms_in.(g) + 1
    done
  done;
  let lru =
    if accounting = Lru && sim_workers = None then Some (Nd_mem.Lru_bank.create machine)
    else None
  in
  {
    lv;
    ev = event_tables lv mode;
    machine;
    tracer;
    traced = Nd_trace.Collector.enabled tracer;
    waiting = Array.make tcount true;
    atoms_in;
    free_space = per_cache (fun i -> lv.m_of.(i));
    owner;
    root;
    anchor_at = Array.make tcount None;
    n_anchors = 0;
    live_space = 0;
    space_hwm = 0;
    visited = Array.init tcount (fun _ -> ref Is.empty);
    lru;
    (* the bank's live level totals are then the misses *)
    misses = (match lru with Some bank -> Nd_mem.Lru_bank.misses bank | None -> Array.make h 0);
    miss_cost = 0;
    trace = Option.map (fun _ -> Nd_mem.Shard_sim.Trace.create ()) sim_workers;
    heap = Heap.create ();
    idle = Array.make (Pmh.n_procs machine) false;
    now = 0;
    cur_proc = 0;
    done_atoms = 0;
  }

let emit s kind = Nd_trace.Collector.emit s.tracer ~worker:s.cur_proc ~ts:s.now kind

let charge_space s size =
  s.live_space <- s.live_space + size;
  if s.live_space > s.space_hwm then s.space_hwm <- s.live_space

let wake_all s =
  for p = 0 to Array.length s.idle - 1 do
    if s.idle.(p) then begin
      s.idle.(p) <- false;
      Heap.push s.heap s.now p
    end
  done

(* ---- anchoring ---- *)

(* the smallest cache level whose σM holds [size]; h + 1 is the memory *)
let fit_level s size =
  let rec go j = if j > s.lv.h || size <= s.lv.m_of.(j - 1) then j else go (j + 1) in
  go 1

let allocation machine ~level size =
  let f = Pmh.fanout machine ~level in
  let frac = 3. *. float_of_int size /. float_of_int (Pmh.size machine ~level) in
  (* ceiling rather than floor: stands in for the extra subclusters the
     full scheduler of [12] provisions for worst-case allocations *)
  min f (max 1 (int_of_float (Float.ceil (float_of_int f *. frac))))

(* Anchors level-j task [ti] at the smallest level l whose σM_l holds
   it, on the level-l cache above [proc], allotting it [allocation] of
   that cache's free level-(l-1) subclusters, [proc]'s own first so the
   finder can keep working inside, and queues its level-(l-1) tasks
   that are already ready.  [None] when the cache lacks the space or
   has no free subcluster. *)
let try_anchor s j ti proc =
  let lv = s.lv and machine = s.machine in
  let size = task_size lv j ti in
  let l = fit_level s size in
  assert (l >= 2 && l <= lv.h);
  let ti' = ton lv l (task_node lv j ti) in
  let cache = Pmh.cache_of_proc machine ~proc ~level:l in
  if s.free_space.(l - 1).(cache) < size then None
  else begin
    let f = Pmh.fanout machine ~level:l in
    let lo = cache * f in
    let own = Pmh.cache_of_proc machine ~proc ~level:(l - 1) in
    let free = ref [] in
    for c = lo + f - 1 downto lo do
      if c <> own && s.owner.(l - 2).(c) = None then free := c :: !free
    done;
    if s.owner.(l - 2).(own) = None then free := own :: !free;
    if !free = [] then None
    else begin
      let q = allocation machine ~level:l size in
      let subclusters = List.filteri (fun k _ -> k < q) !free in
      let a =
        {
          a_level = l;
          a_task = ti';
          a_cache = cache;
          a_subclusters = subclusters;
          a_queue = Queue.create ();
        }
      in
      s.free_space.(l - 1).(cache) <- s.free_space.(l - 1).(cache) - size;
      charge_space s size;
      List.iter (fun c -> s.owner.(l - 2).(c) <- Some a) subclusters;
      s.anchor_at.(gid lv l ti') <- Some a;
      s.n_anchors <- s.n_anchors + 1;
      if s.traced then
        emit s (Nd_trace.Event.Anchor_create { level = l; cache; task = ti'; size });
      let first, last = children lv l ti' in
      for child = first to last do
        let g = gid lv (l - 1) child in
        if s.waiting.(g) && s.ev.dep_count.(g) = 0 then begin
          s.waiting.(g) <- false;
          Queue.push child a.a_queue
        end
      done;
      wake_all s;
      Some a
    end
  end

(* the lowest anchor processor p is part of (the paper's work-finding
   rule: a processor searches only there; exclusivity) *)
let lowest_anchor s p =
  let rec go k =
    if k > s.lv.h then s.root
    else
      match s.owner.(k - 1).(Pmh.cache_of_proc s.machine ~proc:p ~level:k) with
      | Some a -> a
      | None -> go (k + 1)
  in
  go 1

let covers s a p =
  a == s.root
  || List.mem (Pmh.cache_of_proc s.machine ~proc:p ~level:(a.a_level - 1)) a.a_subclusters

let release_anchor s a =
  let size = task_size s.lv a.a_level a.a_task in
  s.free_space.(a.a_level - 1).(a.a_cache) <- s.free_space.(a.a_level - 1).(a.a_cache) + size;
  s.live_space <- s.live_space - size;
  List.iter (fun c -> s.owner.(a.a_level - 2).(c) <- None) a.a_subclusters;
  if s.traced then
    emit s
      (Nd_trace.Event.Anchor_release
         { level = a.a_level; cache = a.a_cache; task = a.a_task; size })

(* ---- readiness (Figure 12) ---- *)

(* queues level-j task [tv] on its parent's anchor, the root's at level
   h, once its last event has fired; a parent not yet anchored queues it
   when it is ([try_anchor]) *)
let enqueue_if_ready s j tv =
  let lv = s.lv in
  let g = gid lv j tv in
  if s.waiting.(g) && s.ev.dep_count.(g) = 0 then
    match
      if j = lv.h then Some s.root
      else s.anchor_at.(gid lv (j + 1) (ton lv (j + 1) (task_node lv j tv)))
    with
    | Some a ->
      s.waiting.(g) <- false;
      Queue.push tv a.a_queue;
      if s.traced then emit s (Nd_trace.Event.Fire { target = tv; level = j });
      wake_all s
    | None -> ()

(* satisfy every dependency subscribed to event [es] *)
let fire_subs s es =
  let ev = s.ev and lv = s.lv in
  for k = ev.subs_off.(es) to ev.subs_off.(es + 1) - 1 do
    let g = ev.subs_tgt.(k) in
    ev.dep_count.(g) <- ev.dep_count.(g) - 1;
    let j = lv.glev.(g) in
    enqueue_if_ready s j (g - lv.goff.(j - 1))
  done

(* a fired fine node fires each glue vertex it was the last source of *)
let rec fire_fine s f =
  fire_subs s f;
  let ev = s.ev in
  for k = ev.glue_off.(f) to ev.glue_off.(f + 1) - 1 do
    let g = ev.glue_tgt.(k) in
    ev.glue_pred.(g) <- ev.glue_pred.(g) - 1;
    if ev.glue_pred.(g) = 0 then fire_fine s g
  done

(* atom [a] is done: fire it, and finish every task it was the last
   atom of, releasing its anchor *)
let complete_atom s a =
  let lv = s.lv in
  s.done_atoms <- s.done_atoms + 1;
  s.visited.(a) := Is.empty;
  fire_fine s a;
  let node = task_node lv 1 a in
  for j = 2 to lv.h do
    let g = gid lv j (ton lv j node) in
    s.atoms_in.(g) <- s.atoms_in.(g) - 1;
    if s.atoms_in.(g) = 0 then begin
      s.waiting.(g) <- false;
      s.visited.(g) := Is.empty;
      (match s.anchor_at.(g) with
      | Some an ->
        release_anchor s an;
        s.anchor_at.(g) <- None
      | None -> ());
      fire_subs s (s.ev.fine_n + g);
      wake_all s
    end
  done;
  wake_all s

(* Processor [p] searches its lowest anchor's queue.  A ready task that
   fits σM₁, or is a leaf, is an atom [p] runs whole; any other is
   anchored below, and [p] descends into it when it is part of the
   allocation.  Returns the atom. *)
let find_work s p =
  let lv = s.lv in
  let rec search a =
    let child_level = a.a_level - 1 in
    let budget = ref (Queue.length a.a_queue) in
    let result = ref None in
    while !result = None && !budget > 0 && not (Queue.is_empty a.a_queue) do
      decr budget;
      let tv = Queue.pop a.a_queue in
      let node = task_node lv child_level tv in
      if task_size lv child_level tv <= lv.m_of.(0) || Program.children lv.program node = [||]
      then result := Some (`Run (ton lv 1 node))
      else
        match try_anchor s child_level tv p with
        | Some sub -> result := Some (`Descend sub)
        | None -> Queue.push tv a.a_queue
    done;
    match !result with
    | Some (`Run atom) -> Some atom
    | Some (`Descend sub) ->
      (* if p joined the new anchor's allocation it must work there
         exclusively; otherwise keep scanning the current queue *)
      if covers s sub p then search sub else search a
    | None -> None
  in
  search (lowest_anchor s p)

(* ---- cost ---- *)

(* ρ, the latency-added cost: a word's first touch inside its enclosing
   level-j task costs C_j, at every level j.  The replay trace, when
   kept, records the footprint. *)
let rho_charge s proc node fp =
  (match s.trace with Some tr -> Nd_mem.Shard_sim.Trace.push tr ~proc fp | None -> ());
  let c = ref 0 in
  for j = 1 to s.lv.h do
    let fresh = Is.absorb s.visited.(gid s.lv j (ton s.lv j node)) fp in
    if fresh > 0 then begin
      s.misses.(j - 1) <- s.misses.(j - 1) + fresh;
      c := !c + (fresh * Pmh.miss_cost s.machine ~level:j)
    end
  done;
  s.miss_cost <- s.miss_cost + !c;
  !c

(* atom [a] run serially on [proc]: each strand's work plus its charge,
   by ρ or by the inline LRU bank *)
let atom_cost s proc a =
  let p = s.lv.program and node = task_node s.lv 1 a in
  let lo, hi = Program.leaf_range p node in
  let cost = ref 0 in
  for i = lo to hi - 1 do
    match Program.kind_of p (Program.leaf_node p i) with
    | Program.Leaf x ->
      let fp = Strand.footprint x in
      let charge =
        match s.lru with
        | Some bank -> Nd_mem.Lru_bank.charge bank ~proc fp
        | None -> rho_charge s proc node fp
      in
      cost := !cost + x.Strand.work + charge
    | Program.Seq | Program.Par | Program.Fire _ -> assert false
  done;
  !cost

(* traces atom [a]'s start, and the misses its cost charged since [m0] *)
let emit_atom s a m0 =
  let p = s.lv.program and node = task_node s.lv 1 a in
  let label =
    match Program.kind_of p node with
    | Program.Leaf x -> x.Strand.label
    | Program.Seq | Program.Par | Program.Fire _ -> Printf.sprintf "task:%d" node
  in
  emit s
    (Nd_trace.Event.Strand_begin { vertex = node; work = Program.work_of_node p node; label });
  for j = 1 to s.lv.h do
    let dm = s.misses.(j - 1) - m0.(j - 1) in
    if dm > 0 then
      emit s
        (Nd_trace.Event.Cache_miss
           { level = j; count = dm; cost = dm * Pmh.miss_cost s.machine ~level:j })
  done

let run ?(sigma = 1. /. 3.) ?(mode = Coarse) ?(accounting = Rho) ?sim_workers
    ?(tracer = Nd_trace.Collector.null) program machine =
  let s = start ~sigma ~mode ~accounting ~sim_workers ~tracer program machine in
  let lv = s.lv and n_procs = Pmh.n_procs machine in
  let n1 = n_tasks lv 1 in
  (* fire parentless glue vertices, marked so the cascade does not
     fire them again *)
  for g = n1 to s.ev.fine_n - 1 do
    if s.ev.glue_pred.(g) = 0 then begin
      s.ev.glue_pred.(g) <- -1;
      fire_fine s g
    end
  done;
  for ti = 0 to n_tasks lv lv.h - 1 do
    enqueue_if_ready s lv.h ti
  done;
  let running = Array.make n_procs (-1) in
  let busy = ref 0 and makespan = ref 0 in
  for p = 0 to n_procs - 1 do
    Heap.push s.heap 0 p
  done;
  while not (Heap.is_empty s.heap) do
    let t, p = Heap.pop s.heap in
    s.now <- t;
    s.cur_proc <- p;
    if t > !makespan && running.(p) >= 0 then makespan := t;
    if running.(p) >= 0 then begin
      let a = running.(p) in
      running.(p) <- -1;
      s.live_space <- s.live_space - task_size lv 1 a;
      if s.traced then emit s (Nd_trace.Event.Strand_end { vertex = task_node lv 1 a });
      complete_atom s a
    end;
    if not s.idle.(p) then
      match find_work s p with
      | Some a ->
        s.waiting.(a) <- false;
        let m0 = if s.traced then Array.copy s.misses else [||] in
        let d = max 1 (atom_cost s p a) in
        if s.traced then emit_atom s a m0;
        running.(p) <- a;
        charge_space s (task_size lv 1 a);
        busy := !busy + d;
        Heap.push s.heap (t + d) p
      | None -> s.idle.(p) <- true
  done;
  if s.done_atoms < n1 then
    raise (Deadlock (Printf.sprintf "completed %d of %d level-1 tasks" s.done_atoms n1));
  let misses, miss_cost, miss_table =
    match (sim_workers, s.trace, s.lru) with
    | Some w, Some tr, _ ->
      (* replace the drive loop's ρ accounting with the replayed
         per-cache LRU tables; time/busy stay the ρ-cost schedule *)
      let mt = Nd_mem.Shard_sim.replay ~workers:w ~machine tr in
      ( Nd_mem.Miss_table.level_totals mt,
        Nd_mem.Miss_table.total_cost mt ~miss_cost:(fun level -> Pmh.miss_cost machine ~level),
        Some mt )
    | _, _, Some bank ->
      (s.misses, Nd_mem.Lru_bank.miss_cost bank, Some (Nd_mem.Lru_bank.miss_table bank))
    | _ -> (s.misses, s.miss_cost, None)
  in
  {
    time = !makespan;
    work = Dag.work (Program.dag program);
    misses;
    miss_cost;
    space_hwm = s.space_hwm;
    busy = !busy;
    n_anchors = s.n_anchors;
    n_procs;
    miss_table;
  }

module Shared : Scheduler.S = struct
  let name = "sb"

  (* the comparison defaults: the paper's scheduler (sigma = 1/3,
     coarse readiness) under Lru accounting, so misses are measured by
     the same inclusive per-cache LRU model as the ws/pdf/tree peers
     (the paper's rho accounting stays the subject of E3/E6).
     Deterministic; anchoring already confines migration, so the
     comm-delay knob is a no-op. *)
  let run ?seed:_ ?comm_delay:_ program machine =
    let s = run ~accounting:Lru program machine in
    {
      Scheduler.time = s.time;
      work = s.work;
      span = Dag.span (Program.dag program);
      misses = s.misses;
      miss_cost = s.miss_cost;
      space_hwm = s.space_hwm;
      busy = s.busy;
      n_procs = s.n_procs;
      miss_table = s.miss_table;
    }
end
