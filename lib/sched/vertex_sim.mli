(** The discrete-event engine under the vertex-level schedulers (work
    stealing, PDF, tree).

    The engine owns everything the three disciplines share: one wake-up
    per processor in an event heap whose ties break by push order, the
    idle flags and the wake-up of every idle processor (lowest id
    first), dispatch and completion of DAG vertices, the strand's cost
    (work, plus misses charged on the machine's inclusive per-cache LRU
    hierarchy through {!Nd_mem.Lru_bank}, plus the comm-delay
    surcharge), the residency of running strands, the stall check and
    the {!Scheduler.stats}.  A scheduler is the ready set it passes in:
    where an enabled vertex goes ([push]) and which vertex an idle
    processor takes next ([pop]).  The policy seeds its own sources
    before the run.

    A completion runs, in order: [retire v]; for each successor, in
    CSR order, whose last predecessor this was, [push p w]; then
    [settle ()].  Idle processors are woken if [settle] returned [true]
    or any successor was pushed.  A processor whose [pop] finds nothing
    while no strand runs asks [unstick ()]; on [true] it retries at the
    same time behind the wake-ups already queued, otherwise it idles. *)

(** [run ?comm_delay ?tracer ... ~push ~pop program machine] — simulate
    until every vertex has run.

    - [push p v]: [v] became ready; its last predecessor ran on [p].
    - [pop p t]: the vertex idle processor [p] runs next at time [t], or
      [-1].
    - [surcharge p] (default 0): extra time for the vertex [pop] just
      handed [p] (work stealing's steal cost).
    - [retire v], [settle ()], [unstick ()]: the completion and stall
      hooks above (defaults: no-op, [false], [false]).
    - [comm_delay] (default 0): dispatching a vertex on a processor
      costs this much more when one of its predecessors ran on another
      processor (Papp et al.).  The engine decides it from one int per
      vertex, updated as each predecessor completes; without comm delay
      it keeps none.

    With [tracer] (one ring per processor) the engine emits strand
    begin/end, fire and per-level cache-miss events at simulated time;
    tracing never changes the schedule.
    @raise Failure if the run stalls with vertices left (a cyclic DAG). *)
val run :
  ?comm_delay:int ->
  ?tracer:Nd_trace.Collector.t ->
  ?surcharge:(int -> int) ->
  ?retire:(int -> unit) ->
  ?settle:(unit -> bool) ->
  ?unstick:(unit -> bool) ->
  push:(int -> int -> unit) ->
  pop:(int -> int -> int) ->
  Nd.Program.t ->
  Nd_pmh.Pmh.t ->
  Scheduler.stats
