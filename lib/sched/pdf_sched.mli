(** Parallel Depth First scheduler (Blelloch–Gibbons–Matias).

    List scheduling with a global ready pool ordered by the vertices'
    {e serial} execution order: of all ready vertices, the p processors
    always run the p earliest in the depth-first 1-processor schedule.
    The classic result is that a PDF schedule's misses on a shared
    cache of size [M + p * span] are bounded by the serial misses on
    [M] — the premier competing locality-aware scheduler named in the
    paper's related work, and the natural foil for the space-bounded
    scheduler on shared-cache geometries.

    The simulation charges misses on the same inclusive per-cache LRU
    hierarchy as {!Work_steal}; [comm_delay] (Papp et al.) adds a fixed
    latency when a vertex is dispatched on a processor while one of
    its predecessors ran on another.  Deterministic: [seed] is a no-op.  The
    serial-rank heap is the policy; {!Vertex_sim} runs the events. *)

(** [run ?seed ?comm_delay program machine]. *)
val run :
  ?seed:int ->
  ?comm_delay:int ->
  Nd.Program.t ->
  Nd_pmh.Pmh.t ->
  Scheduler.stats

module Shared : Scheduler.S
