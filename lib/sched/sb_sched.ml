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

(* task states, kept as ints so the whole task state lives in one flat
   array indexed by global task id *)
let st_waiting = 0

let st_queued = 1

let st_active = 2

let st_done = 3

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

let run ?(sigma = 1. /. 3.) ?(mode = Coarse) ?(accounting = Rho)
    ?(alloc_alpha = 1.) ?sim_workers ?(tracer = Nd_trace.Collector.null)
    program machine =
  let dag = Program.dag program in
  let traced = Nd_trace.Collector.enabled tracer in
  (* trace context: the processor whose heap event is being handled (the
     simulation is single-threaded, so one ref is enough) *)
  let cur_proc = ref 0 in
  let h = Pmh.n_levels machine in
  let n_procs = Pmh.n_procs machine in
  let m_of = Array.init h (fun i ->
      max 1 (int_of_float (sigma *. float_of_int (Pmh.size machine ~level:(i + 1)))))
  in
  let decomp = Array.init h (fun i -> Program.decompose program ~m:m_of.(i)) in
  let n_tasks = Array.map (fun d -> Array.length d.Program.tasks) decomp in
  let task_node j ti = decomp.(j - 1).Program.tasks.(ti) in
  let task_size j ti = Program.size program (task_node j ti) in
  let tov j v = decomp.(j - 1).Program.task_of_vertex.(v) in
  let ton j n = decomp.(j - 1).Program.task_of_node.(n) in
  let nv = Dag.n_vertices dag in

  (* ---- global task ids ---- *)
  (* every (level, task) pair flattened to one int, so per-task state
     (dependency counts, run state, visited sets) lives in flat arrays
     rather than per-level arrays of tuples/hashtables *)
  let goff = Array.make (h + 1) 0 in
  for i = 0 to h - 1 do
    goff.(i + 1) <- goff.(i) + n_tasks.(i)
  done;
  let tcount = goff.(h) in
  let gid j ti = goff.(j - 1) + ti in
  (* level of a global id, for decoding CSR targets back to (j, ti) *)
  let glev = Array.make (max 1 tcount) 0 in
  for j = 1 to h do
    for ti = 0 to n_tasks.(j - 1) - 1 do
      glev.(gid j ti) <- j
    done
  done;

  (* ---- level-1 fine event graph: tasks + glue vertices ---- *)
  let n1 = n_tasks.(0) in
  let glue1_id = Array.make nv (-1) in
  let n_glue1 = ref 0 in
  for v = 0 to nv - 1 do
    if tov 1 v < 0 then begin
      glue1_id.(v) <- n1 + !n_glue1;
      incr n_glue1
    end
  done;
  let fine_n = n1 + !n_glue1 in
  let fine_id v = let t = tov 1 v in if t >= 0 then t else glue1_id.(v) in

  (* ---- parents, children, atom counts ---- *)
  (* parent task (at level j+1) of a level-j task; for j = h the parent is
     the root *)
  let parent_task =
    Array.init h (fun i ->
        let j = i + 1 in
        if j = h then Array.make n_tasks.(i) (-1)
        else Array.map (fun node -> ton (j + 1) node) decomp.(i).Program.tasks)
  in
  (* children of level-l tasks (their level-(l-1) subtasks), in CSR form:
     [child_tgt.(l)] holds child indices ascending, segmented by
     [child_off.(l)]; only meaningful for l >= 2 *)
  let child_off =
    Array.init (h + 1) (fun l ->
        if l < 2 then [||] else Array.make (n_tasks.(l - 1) + 1) 0)
  in
  let child_tgt =
    Array.init (h + 1) (fun l ->
        if l < 2 then [||] else Array.make n_tasks.(l - 2) 0)
  in
  for l = 2 to h do
    let off = child_off.(l) and tgt = child_tgt.(l) in
    for ti = 0 to n_tasks.(l - 2) - 1 do
      let p = parent_task.(l - 2).(ti) in
      off.(p) <- off.(p) + 1
    done;
    slice_ends off n_tasks.(l - 1);
    for ti = n_tasks.(l - 2) - 1 downto 0 do
      let p = parent_task.(l - 2).(ti) in
      off.(p) <- off.(p) - 1;
      tgt.(off.(p)) <- ti
    done
  done;
  (* atoms (level-1 tasks) per level-j task *)
  let atoms_in =
    Array.init (h + 1) (fun j -> if j < 2 then [||] else Array.make n_tasks.(j - 1) 0)
  in
  (* atom -> containing task at each level *)
  let atom_parent =
    Array.init (h + 1) (fun _ -> Array.make n1 (-1))
  in
  for a = 0 to n1 - 1 do
    let node = task_node 1 a in
    for j = 2 to h do
      let tj = ton j node in
      atom_parent.(j).(a) <- tj;
      atoms_in.(j).(tj) <- atoms_in.(j).(tj) + 1
    done
  done;

  (* ---- event tables ---- *)
  (* events: Fine f (level-1 node fired) encoded as [f]; Task (j, ti)
     completion (j >= 2) encoded as [fine_n + gid j ti].  Two CSRs come
     from the DAG's edges: the glue CSR (each fine node's glue targets,
     ascending, with [glue_pred] counting each glue vertex's sources) and
     the subscriber CSR over all events (each event's dependent tasks,
     with [dep_count] counting each task's events).  [walk] meets every
     distinct pair once, in edge order; it runs twice, to count and then
     to fill arrays of their final size.  Vertices are numbered in
     post-order, so a target's repeated pairs are adjacent in vertex
     order, and a stamp holding each target's last source drops them
     (DESIGN §10.2).  Subscriber slices fill from their ends, newest pair
     first: the order the event loop has always fired them in. *)
  let n_events = fine_n + tcount in
  let csr = Dag.csr dag in
  let glue_last = Array.make fine_n (-1) in
  let dep_last = Array.make (max 1 tcount) (-1) in
  let walk glue dep =
    Array.fill glue_last 0 fine_n (-1);
    Array.fill dep_last 0 (Array.length dep_last) (-1);
    for u = 0 to nv - 1 do
      let fu = fine_id u in
      for k = csr.Dag.succ_off.(u) to csr.Dag.succ_off.(u + 1) - 1 do
        let v = csr.Dag.succ_tgt.(k) in
        let fv = fine_id v in
        if fu <> fv && fv >= n1 && glue_last.(fv) <> fu then begin
          glue_last.(fv) <- fu;
          glue fu fv
        end;
        for j = 1 to h do
          let tv = tov j v in
          if tv >= 0 then begin
            let tu = tov j u in
            if tu <> tv then begin
              let es =
                if mode = Coarse && j < h then begin
                  let pu = tov (j + 1) u and pv = tov (j + 1) v in
                  if pu >= 0 && pv >= 0 && pu <> pv then fine_n + gid (j + 1) pu
                  else fine_id u
                end
                else fine_id u
              in
              let d = gid j tv in
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
  let st = Array.make (max 1 tcount) st_waiting in

  (* ---- machine state ---- *)
  (* free anchoring space per cache (levels 1..h); level-1 space is not
     tracked (atoms run whole on one processor) *)
  let free_space =
    Array.init h (fun i ->
        Array.make (Pmh.n_caches machine ~level:(i + 1)) m_of.(i))
  in
  (* owner anchor of each cache, when allocated as a subcluster *)
  let owner : anchor option array array =
    Array.init h (fun i ->
        Array.make (Pmh.n_caches machine ~level:(i + 1)) None)
  in
  let root =
    {
      a_level = h + 1;
      a_task = -1;
      a_cache = 0;
      a_subclusters = List.init (Pmh.n_caches machine ~level:h) (fun c -> c);
      a_queue = Queue.create ();
    }
  in
  List.iter (fun c -> owner.(h - 1).(c) <- Some root) root.a_subclusters;
  let anchor_at =
    Array.init (h + 1) (fun j -> if j < 2 then [||]
                         else Array.make n_tasks.(j - 2) None)
  in
  let n_anchors = ref 0 in
  (* live space = anchored task sizes (the quantity the boundedness
     invariant caps per cache) plus the sizes of running atoms *)
  let live_space = ref 0 in
  let space_hwm = ref 0 in
  let charge_space s =
    live_space := !live_space + s;
    if !live_space > !space_hwm then space_hwm := !live_space
  in

  (* ---- miss accounting ---- *)
  (* visited sets per global task id: one preallocated ref cell each, so
     the drive loop's per-leaf per-level absorb allocates no tuples and
     probes no hashtable (the former hot-path cost) *)
  let visited = Array.init (max 1 tcount) (fun _ -> ref Is.empty) in
  (* inclusive per-cache LRU, used in inline Lru accounting mode only;
     its live level totals are then the misses *)
  let lru =
    if accounting = Lru && sim_workers = None then
      Some (Nd_mem.Lru_bank.create machine)
    else None
  in
  let misses =
    match lru with
    | Some bank -> Nd_mem.Lru_bank.misses bank
    | None -> Array.make h 0
  in
  let total_miss_cost = ref 0 in
  (* decoupled measurement mode: schedule under ρ costs while recording
     the global (proc, footprint) trace, replayed post-run by the
     sharded per-cache LRU ([Nd_mem.Shard_sim]) *)
  let access_trace =
    match sim_workers with
    | Some _ -> Some (Nd_mem.Shard_sim.Trace.create ())
    | None -> None
  in
  let atom_cost_lru bank proc a =
    let node = task_node 1 a in
    let lo, hi = Program.leaf_range program node in
    let cost = ref 0 in
    for i = lo to hi - 1 do
      match Program.kind_of program (Program.leaf_node program i) with
      | Program.Leaf s ->
        cost :=
          !cost + s.Strand.work
          + Nd_mem.Lru_bank.charge bank ~proc (Strand.footprint s)
      | Program.Seq | Program.Par | Program.Fire _ -> assert false
    done;
    !cost
  in
  let atom_cost proc a =
    (* serial execution cost of a level-1 task: work + per-level
       first-touch miss costs *)
    let node = task_node 1 a in
    let lo, hi = Program.leaf_range program node in
    let cost = ref 0 in
    for i = lo to hi - 1 do
      let ln = Program.leaf_node program i in
      (match Program.kind_of program ln with
      | Program.Leaf s ->
        cost := !cost + s.Strand.work;
        let fp = Strand.footprint s in
        (match access_trace with
        | Some tr -> Nd_mem.Shard_sim.Trace.push tr ~proc fp
        | None -> ());
        for j = 1 to h do
          let tj = if j = 1 then a else atom_parent.(j).(a) in
          let set = visited.(gid j tj) in
          let fresh = Is.absorb set fp in
          if fresh > 0 then begin
            misses.(j - 1) <- misses.(j - 1) + fresh;
            let c = fresh * Pmh.miss_cost machine ~level:j in
            total_miss_cost := !total_miss_cost + c;
            cost := !cost + c
          end
        done
      | Program.Seq | Program.Par | Program.Fire _ -> assert false)
    done;
    !cost
  in

  (* ---- event machinery ---- *)
  let events : int Heap.t = Heap.create () in
  (* payload = processor id *)
  let idle = Array.make n_procs false in
  let now = ref 0 in
  let wake_all () =
    for p = 0 to n_procs - 1 do
      if idle.(p) then begin
        idle.(p) <- false;
        Heap.push events !now p
      end
    done
  in
  let emit kind =
    Nd_trace.Collector.emit tracer ~worker:!cur_proc ~ts:!now kind
  in
  let anchor_of_parent j tv =
    (* the anchor in whose queue a level-j task is scheduled *)
    if j = h then Some root
    else anchor_at.(j + 1).(parent_task.(j - 1).(tv))
  in
  let enqueue_if_ready j tv =
    let g = gid j tv in
    if st.(g) = st_waiting && dep_count.(g) = 0 then
      match anchor_of_parent j tv with
      | Some a ->
        st.(g) <- st_queued;
        Queue.push tv a.a_queue;
        if traced then emit (Nd_trace.Event.Fire { target = tv; level = j });
        wake_all ()
      | None -> ()
  in
  let done_atoms = ref 0 in
  (* satisfy every dependency subscribed to event [es] *)
  let fire_subs es =
    for k = subs_off.(es) to subs_off.(es + 1) - 1 do
      let g = subs_tgt.(k) in
      dep_count.(g) <- dep_count.(g) - 1;
      let j = glev.(g) in
      enqueue_if_ready j (g - goff.(j - 1))
    done
  in
  let rec fire_fine f =
    fire_subs f;
    for k = glue_off.(f) to glue_off.(f + 1) - 1 do
      let g = glue_tgt.(k) in
      glue_pred.(g) <- glue_pred.(g) - 1;
      if glue_pred.(g) = 0 then fire_fine g
    done
  in
  let release_anchor a =
    free_space.(a.a_level - 1).(a.a_cache) <-
      free_space.(a.a_level - 1).(a.a_cache) + task_size a.a_level a.a_task;
    live_space := !live_space - task_size a.a_level a.a_task;
    List.iter (fun c -> owner.(a.a_level - 2).(c) <- None) a.a_subclusters;
    if traced then
      emit
        (Nd_trace.Event.Anchor_release
           { level = a.a_level; cache = a.a_cache; task = a.a_task;
             size = task_size a.a_level a.a_task })
  in
  let task_done j ti =
    visited.(gid j ti) := Is.empty;
    if j >= 2 then begin
      (match anchor_at.(j).(ti) with
      | Some a ->
        release_anchor a;
        anchor_at.(j).(ti) <- None
      | None -> ());
      fire_subs (fine_n + gid j ti)
    end;
    wake_all ()
  in
  let complete_atom a =
    st.(a) <- st_done;
    incr done_atoms;
    visited.(a) := Is.empty;
    fire_fine a;
    for j = 2 to h do
      let tj = atom_parent.(j).(a) in
      atoms_in.(j).(tj) <- atoms_in.(j).(tj) - 1;
      if atoms_in.(j).(tj) = 0 then begin
        st.(gid j tj) <- st_done;
        task_done j tj
      end
    done;
    wake_all ()
  in

  (* fit level: smallest cache level whose (dilated) size holds the task *)
  let fit_level size =
    let rec go j = if j > h then h + 1 else if size <= m_of.(j - 1) then j else go (j + 1) in
    go 1
  in
  let alloc_q level size =
    let f =
      if level = h + 1 then List.length root.a_subclusters
      else Pmh.fanout machine ~level
    in
    let msize = if level = h + 1 then max 1 size else Pmh.size machine ~level in
    let frac = 3. *. float_of_int size /. float_of_int msize in
    (* ceiling rather than floor: stands in for the extra subclusters the
       full scheduler of [12] provisions for worst-case allocations *)
    min f
      (max 1
         (int_of_float
            (Float.ceil (float_of_int f *. (frac ** Float.min alloc_alpha 1.)))))
  in
  let try_anchor j ti proc =
    (* anchor level-j' maximal task (node known to be a task at level j',
       index ti') at the level-j' cache above [proc] *)
    let node = task_node j ti in
    let size = task_size j ti in
    let l = fit_level size in
    assert (l >= 2 && l <= h);
    let ti' = ton l node in
    let cache = Pmh.cache_of_proc machine ~proc ~level:l in
    if free_space.(l - 1).(cache) < size then None
    else begin
      (* free subclusters at level l-1 under this cache; prefer the one
         on [proc]'s own path so the finder can keep working inside *)
      let f = Pmh.fanout machine ~level:l in
      let lo = cache * f in
      let own = Pmh.cache_of_proc machine ~proc ~level:(l - 1) in
      let free = ref [] in
      for c = lo + f - 1 downto lo do
        if c <> own && owner.(l - 2).(c) = None then free := c :: !free
      done;
      if owner.(l - 2).(own) = None then free := own :: !free;
      if !free = [] then None
      else begin
        let q = alloc_q l size in
        let rec take k = function
          | [] -> []
          | c :: rest -> if k = 0 then [] else c :: take (k - 1) rest
        in
        let subclusters = take q !free in
        let a =
          {
            a_level = l;
            a_task = ti';
            a_cache = cache;
            a_subclusters = subclusters;
            a_queue = Queue.create ();
          }
        in
        free_space.(l - 1).(cache) <- free_space.(l - 1).(cache) - size;
        charge_space size;
        List.iter (fun c -> owner.(l - 2).(c) <- Some a) subclusters;
        anchor_at.(l).(ti') <- Some a;
        incr n_anchors;
        if traced then
          emit
            (Nd_trace.Event.Anchor_create
               { level = l; cache; task = ti'; size });
        (* enqueue already-ready children *)
        for k = child_off.(l).(ti') to child_off.(l).(ti' + 1) - 1 do
          let child = child_tgt.(l).(k) in
          let g = gid (l - 1) child in
          if st.(g) = st_waiting && dep_count.(g) = 0 then begin
            st.(g) <- st_queued;
            Queue.push child a.a_queue
          end
        done;
        wake_all ();
        Some a
      end
    end
  in

  (* the lowest anchor processor p is part of (the paper's work-finding
     rule: a processor searches only there; exclusivity) *)
  let lowest_anchor p =
    let found = ref root in
    (try
       for k = 1 to h do
         let c = Pmh.cache_of_proc machine ~proc:p ~level:k in
         match owner.(k - 1).(c) with
         | Some a ->
           found := a;
           raise Exit
         | None -> ()
       done
     with Exit -> ());
    !found
  in

  let covers a p =
    a == root
    ||
    let c = Pmh.cache_of_proc machine ~proc:p ~level:(a.a_level - 1) in
    List.mem c a.a_subclusters
  in

  (* returns the atom to run, or None *)
  let find_work p =
    let rec search a =
      let child_level = a.a_level - 1 in
      let budget = ref (Queue.length a.a_queue) in
      let result = ref None in
      while !result = None && !budget > 0 && not (Queue.is_empty a.a_queue) do
        decr budget;
        let tv = Queue.pop a.a_queue in
        let node = task_node child_level tv in
        let size = task_size child_level tv in
        if size <= m_of.(0) || Program.children program node = [||] then begin
          st.(gid child_level tv) <- st_active;
          result := Some (`Run (child_level, tv))
        end
        else
          match try_anchor child_level tv p with
          | Some sub ->
            st.(gid child_level tv) <- st_active;
            result := Some (`Descend sub)
          | None -> Queue.push tv a.a_queue
      done;
      match !result with
      | Some (`Run r) -> Some r
      | Some (`Descend sub) ->
        (* if p joined the new anchor's allocation it must work there
           exclusively; otherwise keep scanning the current queue *)
        if covers sub p then search sub else search a
      | None -> None
    in
    search (lowest_anchor p)
  in

  (* ---- bootstrap ---- *)
  (* fire parentless glue vertices *)
  for g = n1 to fine_n - 1 do
    if glue_pred.(g) = 0 then begin
      (* mark so the cascade does not re-fire it *)
      glue_pred.(g) <- -1;
      fire_fine g
    end
  done;
  for ti = 0 to n_tasks.(h - 1) - 1 do
    enqueue_if_ready h ti
  done;
  let running = Array.make n_procs (-1) in
  let busy = ref 0 in
  for p = 0 to n_procs - 1 do
    Heap.push events 0 p
  done;
  let makespan = ref 0 in
  while not (Heap.is_empty events) do
    let t, p = Heap.pop events in
    now := t;
    cur_proc := p;
    if t > !makespan && running.(p) >= 0 then makespan := t;
    if running.(p) >= 0 then begin
      let a = running.(p) in
      running.(p) <- (-1);
      live_space := !live_space - task_size 1 a;
      if traced then
        emit (Nd_trace.Event.Strand_end { vertex = task_node 1 a });
      complete_atom a
    end;
    if not idle.(p) then
      match find_work p with
      | Some (_level, tv) ->
        (* the node is also a level-1 task: execute it serially *)
        let a1 = ton 1 (task_node _level tv) in
        st.(a1) <- st_active;
        let m0 = if traced then Array.copy misses else [||] in
        let d =
          max 1
            (match lru with
            | Some bank -> atom_cost_lru bank p a1
            | None -> atom_cost p a1)
        in
        if traced then begin
          let node = task_node 1 a1 in
          let label =
            match Program.kind_of program node with
            | Program.Leaf s -> s.Strand.label
            | Program.Seq | Program.Par | Program.Fire _ ->
              Printf.sprintf "task:%d" node
          in
          emit
            (Nd_trace.Event.Strand_begin
               { vertex = node; work = Program.work_of_node program node; label });
          for j = 1 to h do
            let dm = misses.(j - 1) - m0.(j - 1) in
            if dm > 0 then
              emit
                (Nd_trace.Event.Cache_miss
                   { level = j; count = dm;
                     cost = dm * Pmh.miss_cost machine ~level:j })
          done
        end;
        running.(p) <- a1;
        charge_space (task_size 1 a1);
        busy := !busy + d;
        Heap.push events (t + d) p
      | None -> idle.(p) <- true
  done;
  if !done_atoms < n1 then
    raise
      (Deadlock
         (Printf.sprintf "completed %d of %d level-1 tasks" !done_atoms n1));
  let misses, total_miss_cost, miss_table =
    match (sim_workers, access_trace) with
    | Some w, Some tr ->
      (* replace the drive loop's ρ accounting with the replayed
         per-cache LRU tables; time/busy stay the ρ-cost schedule *)
      let mt = Nd_mem.Shard_sim.replay ~workers:w ~machine tr in
      ( Nd_mem.Miss_table.level_totals mt,
        Nd_mem.Miss_table.total_cost mt ~miss_cost:(fun level ->
            Pmh.miss_cost machine ~level),
        Some mt )
    | _ -> (
      match lru with
      | Some bank ->
        ( misses,
          Nd_mem.Lru_bank.miss_cost bank,
          Some (Nd_mem.Lru_bank.miss_table bank) )
      | None -> (misses, !total_miss_cost, None))
  in
  {
    time = !makespan;
    work = Dag.work dag;
    misses;
    miss_cost = total_miss_cost;
    space_hwm = !space_hwm;
    busy = !busy;
    n_anchors = !n_anchors;
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
