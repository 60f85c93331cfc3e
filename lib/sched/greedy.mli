(** Greedy (Brent-style) list scheduler: p processors, a global ready
    pool, no locality model.  Provides the classic [T_p <= W/p + T_inf]
    sanity bound the tests verify, and a cache-blind lower envelope for
    the scheduling experiments. *)

(** [run ~procs program] — the schedule on [procs] processors.  No
    misses ([[||]], no miss table), [busy = work], and [space_hwm] is
    the peak sum of footprints of concurrently running strands. *)
val run : procs:int -> Nd.Program.t -> Scheduler.stats

(** [brent_bound s] = W/p + T_inf (ceiling division). *)
val brent_bound : Scheduler.stats -> int

(** Zoo face; [procs] comes from the machine, both common knobs are
    no-ops (cache-blind and deterministic). *)
module Shared : Scheduler.S
