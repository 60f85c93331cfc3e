(** The common face of the scheduler zoo.

    Every simulated scheduler — the paper's space-bounded scheduler, the
    work-stealing baseline it is compared against, the cache-blind
    greedy envelope, and the two peers from the related work (Parallel
    Depth First, and the Marchal–Sinnen–Vivien memory-bounded tree
    scheduler) — answers the same question: given a compiled ND program
    and a PMH machine, what are the makespan, the per-level misses, and
    the space high-water mark?  This interface is that question, so the
    Oracle can drive all of them through one set of invariants and the
    E10 suite experiment can print them side by side.

    Native modules keep their richer APIs (anchors, steal counts,
    sigma/mode knobs); each exposes a [Shared] submodule fixing its
    knobs to the comparison defaults. *)

type stats = {
  time : int;  (** makespan in cost units *)
  work : int;  (** total strand work (machine-independent) *)
  span : int;  (** critical-path work [T_inf] *)
  misses : int array;
      (** index j-1 = misses at cache level j; [[||]] for cache-blind
          schedulers *)
  miss_cost : int;  (** total miss cost summed over levels *)
  space_hwm : int;
      (** high-water mark of live space, in words.  For vertex-level
          schedulers: the peak sum of footprints of concurrently
          running strands; for task-level schedulers (SB, tree): the
          peak total size of simultaneously anchored/admitted tasks —
          the quantity their boundedness invariants cap. *)
  busy : int;  (** total processor busy time *)
  n_procs : int;
  miss_table : Nd_mem.Miss_table.t option;
      (** per-(level, cache-instance) miss counts when the scheduler
          simulates per-cache LRU ([None] for cache-blind schedulers
          and for SB's ρ accounting); [misses] are its level totals *)
}

(** A zoo member: a display name and one entry point with the common
    knobs.  [seed] feeds any internal randomness (work stealing's victim
    choice); deterministic schedulers ignore it.  [comm_delay] is the
    Papp-et-al. communication-delay knob: dispatching a vertex onto a
    processor costs this many extra time units when one of its
    predecessors ran on another processor (default 0 — the classic
    model).  Schedulers whose
    dispatch loop has no such notion ignore it. *)
module type S = sig
  val name : string

  val run :
    ?seed:int -> ?comm_delay:int -> Nd.Program.t -> Nd_pmh.Pmh.t -> stats
end

(** busy / (time * procs), 0. for empty runs. *)
val utilization : stats -> float

val pp_stats : Format.formatter -> stats -> unit

(** Column labels matching {!to_row}:
    time, work, miss cost, misses, space hwm, util. *)
val row_header : string list

(** The stats as suite-table cells, in {!row_header} order ([misses] is
    rendered ["a;b;c"], or ["-"] for cache-blind schedulers).  Callers
    prepend their own identifying cells (algo, scheduler name). *)
val to_row : stats -> string list
