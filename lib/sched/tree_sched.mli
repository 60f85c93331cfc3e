(** Memory-bounded tree scheduler (Marchal–Sinnen–Vivien style).

    The spawn tree {e is} the task tree of the memory-bounded tree
    scheduling literature, with s(n) — the statically-allocated task
    size — as the footprint a subtree occupies while live.  The
    scheduler splits the tree into M-maximal tasks at a quarter of a
    memory budget (the size of the machine's outermost cache), orders
    them by the peak-minimizing serial traversal (children of Par/Fire
    nodes in descending [peak - size], Liu's rule; Seq children in
    dependency order), and then list-schedules the DAG with the twist
    that a task's vertices are dispatchable only while the task is {e
    admitted}: tasks enter in traversal order when their size fits under
    the budget alongside the already-admitted ones.  When the machine
    would otherwise stall — nothing running, nothing dispatchable — the
    front pending task is force-admitted whatever its size (the usual
    progress escape of the makespan/memory trade-off heuristics).  The
    budget therefore holds only between forced admissions: a regular
    admission never takes the admitted footprint past it, but a forced
    one can, and admitted tasks blocked on unadmitted ones keep their
    footprint while further forced admissions stack on top (E10:
    269,408 words on fw1d n=512 against a 4,096-word budget).

    Misses are charged on the same inclusive per-cache LRU hierarchy
    as {!Work_steal}/{!Pdf_sched}; [comm_delay] as in {!Pdf_sched}.
    Deterministic: [seed] is a no-op.  [space_hwm] reports the peak
    admitted-task footprint.  The admission queue is the policy;
    {!Vertex_sim} runs the events. *)

(** [run ?seed ?comm_delay program machine]. *)
val run :
  ?seed:int -> ?comm_delay:int -> Nd.Program.t -> Nd_pmh.Pmh.t ->
  Scheduler.stats

module Shared : Scheduler.S
