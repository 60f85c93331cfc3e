(** Randomized work-stealing baseline (the scheduler the paper's SB
    design is compared against, cf. [47, 48]).

    Simulates classic Chase–Lev-style work stealing directly over the
    algorithm DAG: each processor owns a deque of ready vertices, pushes
    newly enabled successors to its bottom, and steals from a uniformly
    random victim's top when empty, paying 2 time units per steal.
    Locality is modelled with an inclusive multi-level LRU hierarchy on
    the same PMH geometry — shared caches see the interleaved streams of
    the processors below them, so steals destroy the locality that SB
    anchoring preserves; comparing per-level misses against {!Sb_sched}
    is experiment E6.  The ready set is the policy; {!Vertex_sim} runs
    the events. *)

(** [run ?seed ?tracer program machine] — simulate; returns the stats
    and the number of steals.  With [tracer] (one ring per simulated
    processor), emits per-vertex strand begin/end, steal, fire and
    per-level cache-miss events at simulation timestamps; tracing never
    perturbs the schedule or the stats. *)
val run :
  ?seed:int -> ?tracer:Nd_trace.Collector.t -> Nd.Program.t ->
  Nd_pmh.Pmh.t -> Scheduler.stats * int

(** Zoo face; [comm_delay] is a no-op (the steal cost already models
    migration latency). *)
module Shared : Scheduler.S
