module Json = Nd_util.Json

type admission = Always | Second_use

type 'v entry = { value : 'v; mutable stamp : int }

(* a key's slot is either a cached value or a single-flight marker: the
   first misser installs [Pending] and computes outside the lock; racers
   on the same key wait on [cond] instead of recomputing, and mark the
   slot [waited] — a second use of the key *)
type pending = { mutable waited : bool }

type 'v slot = Ready of 'v entry | Pending of pending

type ('k, 'v) t = {
  name : string;
  cap : int;
  admission : admission;
  tbl : ('k, 'v slot) Hashtbl.t;
  (* [Second_use] only: the keys of the last [cap] computes that were
     not kept, as a ring ([ghost_next] is its oldest slot) indexed by
     [ghost_at].  A key admitted from it leaves a [None] behind. *)
  ghost : 'k option array;
  ghost_at : ('k, int) Hashtbl.t;
  mutable ghost_next : int;
  lock : Mutex.t;
  cond : Condition.t;
  mutable n_ready : int;  (* Ready slots in [tbl]; capacity counts these *)
  mutable tick : int;
  (* stamps for offered entries: below every tick, rising, so offered
     entries go first and in the order they came *)
  mutable cold : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable bypassed : int;
  mutable offered : int;
}

let create ~name ~cap ?(admission = Always) () =
  let cap = max 1 cap in
  let ghost_cap = match admission with Always -> 0 | Second_use -> cap in
  {
    name;
    cap;
    admission;
    tbl = Hashtbl.create (min 64 (2 * cap));
    ghost = Array.make ghost_cap None;
    ghost_at = Hashtbl.create (min 64 ghost_cap);
    ghost_next = 0;
    lock = Mutex.create ();
    cond = Condition.create ();
    n_ready = 0;
    tick = 0;
    cold = min_int;
    hits = 0;
    misses = 0;
    evictions = 0;
    bypassed = 0;
    offered = 0;
  }

let name t = t.name

let touch t e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick

let evict_lru t =
  (* caps are tens of entries: an O(size) scan on the eviction path is
     cheaper than maintaining an intrusive list.  Pending slots are not
     evictable — they hold no value and their computer expects to find
     them on completion. *)
  let victim = ref None in
  Hashtbl.iter
    (fun k s ->
      match s with
      | Pending _ -> ()
      | Ready e -> (
        match !victim with
        | Some (_, st) when st <= e.stamp -> ()
        | _ -> victim := Some (k, e.stamp)))
    t.tbl;
  match !victim with
  | Some (k, _) ->
    Hashtbl.remove t.tbl k;
    t.n_ready <- t.n_ready - 1;
    t.evictions <- t.evictions + 1
  | None -> ()

(* under the lock, with no slot for [k] in [tbl] *)
let insert t k e =
  if t.n_ready >= t.cap then evict_lru t;
  Hashtbl.add t.tbl k (Ready e);
  t.n_ready <- t.n_ready + 1

(* under the lock: does a finished compute of [k] enter the table?
   Under [Second_use], yes when a caller waited on it or [k]'s last
   compute was not kept; a key not kept is remembered in the ghost
   ring, pushing out its oldest *)
let admit t k ~waited =
  match t.admission with
  | Always -> true
  | Second_use -> (
    match Hashtbl.find_opt t.ghost_at k with
    | Some i ->
      t.ghost.(i) <- None;
      Hashtbl.remove t.ghost_at k;
      true
    | None when waited -> true
    | None ->
      Option.iter (Hashtbl.remove t.ghost_at) t.ghost.(t.ghost_next);
      t.ghost.(t.ghost_next) <- Some k;
      Hashtbl.replace t.ghost_at k t.ghost_next;
      t.ghost_next <- (t.ghost_next + 1) mod t.cap;
      false)

let find_or_compute t k f =
  let action =
    Mutex.protect t.lock (fun () ->
        let rec classify () =
          match Hashtbl.find_opt t.tbl k with
          | Some (Ready e) ->
            t.hits <- t.hits + 1;
            touch t e;
            `Hit e.value
          | Some (Pending p) ->
            (* someone is computing this key: wait; on wake the slot is
               Ready (count as a hit), or gone because the compute raised
               (reclassify and become the new computer) *)
            p.waited <- true;
            Condition.wait t.cond t.lock;
            classify ()
          | None ->
            t.misses <- t.misses + 1;
            let p = { waited = false } in
            Hashtbl.replace t.tbl k (Pending p);
            `Compute p
        in
        classify ())
  in
  match action with
  | `Hit v -> v
  | `Compute p -> (
    (* the expensive part runs outside the cache lock: misses on
       distinct keys overlap, and only same-key callers block *)
    match f () with
    | value ->
      Mutex.protect t.lock (fun () ->
          Hashtbl.remove t.tbl k;
          if admit t k ~waited:p.waited then begin
            let e = { value; stamp = 0 } in
            touch t e;
            insert t k e
          end
          else t.bypassed <- t.bypassed + 1;
          Condition.broadcast t.cond);
      value
    | exception exn ->
      Mutex.protect t.lock (fun () ->
          Hashtbl.remove t.tbl k;
          Condition.broadcast t.cond);
      raise exn)

let offer t k value =
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.tbl k) then begin
        insert t k { value; stamp = t.cold };
        t.cold <- t.cold + 1;
        t.offered <- t.offered + 1
      end)

let find_opt t k =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | Some (Ready e) -> Some e.value
      | Some (Pending _) | None -> None)

let locked t read = Mutex.protect t.lock (fun () -> read t)

let length t = locked t (fun t -> t.n_ready)

let hits t = locked t (fun t -> t.hits)

let misses t = locked t (fun t -> t.misses)

let evictions t = locked t (fun t -> t.evictions)

let bypassed t = locked t (fun t -> t.bypassed)

(* every counter from one lock acquisition, so a snapshot never shows
   an insert without the miss that led to it *)
let stats_json t =
  let size, hits, misses, evictions, bypassed, offered =
    locked t (fun t ->
        (t.n_ready, t.hits, t.misses, t.evictions, t.bypassed, t.offered))
  in
  Json.Obj
    [
      ("name", Json.String t.name);
      ("size", Json.Int size);
      ("cap", Json.Int t.cap);
      ("hits", Json.Int hits);
      ("misses", Json.Int misses);
      ("evictions", Json.Int evictions);
      ("bypassed", Json.Int bypassed);
      ("offered", Json.Int offered);
    ]
