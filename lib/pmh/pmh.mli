(** The Parallel Memory Hierarchy (PMH) machine model [Alpern, Carter,
    Ferrante] used throughout Section 4 of the paper (Figure 2): a
    symmetric tree rooted at an infinite memory, with identical caches at
    each internal level and processors at the leaves.

    Levels are numbered 1..h-1 from the processors up (level 0 is the
    processor/registers); [caches.(i-1)] describes level i.  A miss at
    level i costs [C_i] (serviced from level i+1); the root memory
    services the top caches at [caches.(h-2).miss_cost]'s level via
    [root_fanout] links.  Unit cache lines (B = 1), as in the paper's
    simplified analysis. *)

type level = {
  size : int;  (** M_i, in words *)
  fanout : int;  (** f_i: number of level-(i-1) units below each cache *)
  miss_cost : int;  (** C_i: cost of servicing a level-i miss *)
}

type t = private {
  caches : level array;  (** index 0 = level-1 cache (smallest) *)
  root_fanout : int;  (** number of top-level caches below memory *)
}

(** [create ~root_fanout levels] builds a machine; [levels] from L1 up.
    @raise Invalid_argument unless sizes strictly increase, and all
    sizes/fanouts/costs are positive. *)
val create : root_fanout:int -> level list -> t

(** [n_levels t] = h - 1: number of cache levels. *)
val n_levels : t -> int

(** [n_procs t] — number of processors (leaves). *)
val n_procs : t -> int

(** [n_caches t ~level] — number of cache instances at a level (1-based). *)
val n_caches : t -> level:int -> int

(** [size t ~level] / [miss_cost t ~level] / [fanout t ~level] — level
    parameters, 1-based. *)
val size : t -> level:int -> int

val miss_cost : t -> level:int -> int

val fanout : t -> level:int -> int

(** [cum_miss_cost t ~level] — C'_level = C_1 + ... + C_(level-1)... the
    cost of servicing a word from the given level into the processor;
    [cum_miss_cost t ~level:(n_levels t + 1)] is a full fetch from
    memory. *)
val cum_miss_cost : t -> level:int -> int

(** [cache_of_proc t ~proc ~level] — index of the level-[level] cache
    above processor [proc]. *)
val cache_of_proc : t -> proc:int -> level:int -> int

(** [procs_under t ~level ~cache] — the inclusive processor range
    [(lo, hi)] below a cache instance. *)
val procs_under : t -> level:int -> cache:int -> int * int

(** [shard_pairs t ~shards] — a deterministic partition of all
    (level, cache-instance) pairs of the machine into at most [shards]
    disjoint groups, for parallel per-cache simulation.  Every pair
    appears in exactly one group.  Pairs are weighted by the processor
    count below the cache (the expected share of a uniform access trace
    routed to it) and balanced greedily, heaviest first (LPT); ties
    break on (level, cache) order, so the result is a pure function of
    the machine shape and [shards].  Each group is non-empty and sorted
    by (level, cache); the group count is [min shards n_pairs].
    @raise Invalid_argument if [shards < 1]. *)
val shard_pairs : t -> shards:int -> (int * int) array array

(** [perfect_time t ~sigma ~q_star] — the perfectly load-balanced bound
    of Eq. 22: (sum over levels j of Q*(sigma*M_j) * C_j) / p, where
    [q_star m] evaluates the program's PCC at cache size [m].  The
    returned value is in the same time unit as the work; the level-0
    (pure work) term must be included by the caller if desired. *)
val perfect_time : t -> sigma:float -> q_star:(int -> int) -> float

(** [overhead_vh t ~alpha ~k] — the v_h factor of Theorem 3:
    2 * prod_j (1/k + f_j / ((1-k) * (M_j/M_(j-1))^alpha')). *)
val overhead_vh : t -> alpha:float -> k:float -> float

(** [describe t] — a one-line summary. *)
val describe : t -> string

(** {2 Canned machines} *)

(** [flat ~procs ~m ~miss_cost] — single cache level shared by all
    processors. *)
val flat : procs:int -> m:int -> miss_cost:int -> t

(** [desktop ()] — 3 cache levels, 16 processors: private L1 (1 KiW),
    L2 shared by 4 (8 KiW), L3 shared by all 16 (64 KiW). *)
val desktop : unit -> t

(** [standard ~top] — the experiments' machine: 3 cache levels of 64,
    512 and 4096 words with miss costs 2, 8 and 32 (private L1, L2 and
    L3 each shared by 4), and [top] L3 caches under the root, so
    [16 * top] processors. *)
val standard : top:int -> t

(** [server ()] — 3 cache levels, 64 processors across 4 sockets. *)
val server : unit -> t

(** [scaled ~top_caches ()] — the desktop socket replicated
    [top_caches] times. *)
val scaled : top_caches:int -> unit -> t
