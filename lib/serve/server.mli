(** The analysis daemon: a socket front-end over the whole offline
    toolchain (lint, ESP race verdicts, space-bounded simulation, fuzz,
    experiment tables), with keyed artifact caches so repeated queries
    are O(lookup).

    Topology (see DESIGN.md section 11): one accept loop; one reader
    thread per connection decoding length-prefixed
    {!Nd_util.Json.Frame}s.  [ping], [stats] and [shutdown] are
    answered inline by the reader thread; every other request runs as
    a fiber on one {!Nd_runtime.Fiber_exec} server pool of
    {!Nd_runtime.Executor.default_workers} workers ([NDSIM_WORKERS]
    sizes it), whose domains start on demand.  Request kinds have no
    reserved workers: a long fuzz or suite request holds one of them.
    A fiber writes its response frame under the connection's write
    lock, so responses may interleave across requests — clients match
    on [id].

    Result caches keep every answer.  Compiled programs are kept from
    the second use of their key only, so one-shot keys pin no program;
    a lint request runs the ESP pass its ND009 check needs once and
    files the race reply it yields, so a race request after a lint on
    the same key is a cache hit.

    Per-request latency (decode to response written, queue wait
    included) is recorded in one {!Nd_util.Histogram.Sync} per request
    kind, written by reader threads and pool fibers alike, and read by
    the [stats] request. *)

type config = {
  addr : Protocol.addr;
  max_frame : int;  (** reject frames above this many payload bytes *)
  program_cache_cap : int;
      (** compiled-workload entries; a program is kept from the second
          use of its key (see {!Cache.Second_use}) *)
  result_cache_cap : int;  (** entries per result cache *)
  quiet : bool;
}

val default_config : Protocol.addr -> config

(** The standard simulation machine of the CLI: three cache levels
    (64/512/4096 words) under [top] root caches, 16 processors each. *)
val standard_machine : top:int -> Nd_pmh.Pmh.t

(** [run config] — bind, serve until a [shutdown] request (or
    SIGINT/SIGTERM), drain the pool, clean up the socket.  A request
    arriving after the pool has closed is answered with the error
    ["server shutting down"].  Blocks for
    the server's whole life; returns on clean shutdown.
    @raise Unix.Unix_error when the address cannot be bound. *)
val run : config -> unit
