(** Keyed LRU caches over the server's hot artifacts.

    Mutex-guarded bookkeeping with {e per-key single-flight} computes:
    the first misser of a key installs an in-flight marker and runs the
    compute function {e outside} the cache lock; racers on the {e same}
    key block on a condition variable and pick up the finished value
    (counted as hits), while misses on {e distinct} keys overlap — a
    slow suite compile no longer serializes every other compile on the
    same cache.  A compute that raises wakes its waiters empty-handed;
    the first of them retries the compute itself.

    An {e admission rule} decides whether a finished compute enters the
    table.  Under [Second_use] a key is kept from its second use on: a
    value nobody else asked for goes to its caller alone, and only its
    key is remembered, so a stream of one-shot keys pins nothing.

    Keys use structural equality/hashing; values are never mutated by
    the cache.  Capacity eviction is strict LRU (stamped on every
    hit), with offered entries colder than any used one; in-flight
    keys don't count against capacity and are never evicted.  Every
    counter is read under the cache lock. *)

type ('k, 'v) t

(** When a finished compute enters the table:
    - [Always]: every one;
    - [Second_use]: when another caller waited on it (single-flight),
      or when its key is among the last [cap] keys computed and not
      kept (the {e ghost} list); otherwise the value goes to its caller
      only, the key joins the ghost list and [bypassed] counts it. *)
type admission = Always | Second_use

(** [create ~name ~cap ?admission ()] — [cap >= 1] entries (clamped);
    [admission] defaults to [Always]. *)
val create :
  name:string -> cap:int -> ?admission:admission -> unit -> ('k, 'v) t

val name : _ t -> string

(** [find_or_compute t k f] — the cached value, or [f ()], inserted
    under [k] (evicting the least recently used entry if full) when
    the admission rule keeps it.  [f] runs outside the cache lock;
    concurrent callers with the same key run [f] once and share the
    result.  Exceptions from [f] propagate to the computing caller and
    cache nothing. *)
val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

(** [offer t k v] — insert [v] under [k] (evicting as an insert does)
    unless [k] already has a value or a compute in flight.  For a value
    computed on the way to another answer: it counts as neither hit nor
    miss, [offered] counts it, and the admission rule does not apply.
    The entry enters at the cold end, behind every entry a caller has
    used, so an offer never pushes a used entry out before an older
    offered one; offered entries leave in the order they came, and a
    hit promotes one as usual. *)
val offer : ('k, 'v) t -> 'k -> 'v -> unit

(** Peek without computing or touching LRU order. *)
val find_opt : ('k, 'v) t -> 'k -> 'v option

val length : _ t -> int

val hits : _ t -> int

val misses : _ t -> int

val evictions : _ t -> int

(** Finished computes the admission rule did not keep. *)
val bypassed : _ t -> int

(** [{"name";"size";"cap";"hits";"misses";"evictions";"bypassed";
    "offered"}], all read in one lock acquisition, so every snapshot
    has [size <= cap] and
    [size + evictions + bypassed <= misses + offered]. *)
val stats_json : _ t -> Nd_util.Json.t
