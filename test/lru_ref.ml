(* The references the LRU simulation in lib/mem is tested against:

   - a fully associative LRU cache of [m] words kept one cell per
     resident word, the model [Nd_mem.Cache_sim]'s interval segments
     must reproduce miss for miss;
   - [replay_serial], one interleaved pass over a recorded trace with
     every (level, cache) cache of the machine live at once, the pass
     [Nd_mem.Shard_sim.replay] (each shard's caches on their own, at
     any worker count) and [Nd_mem.Lru_bank] (the inclusive bank the
     schedulers charge) must reproduce cell for cell.  It is
     deliberately a different code shape from both. *)

module Is = Nd_util.Interval_set
module Pmh = Nd_pmh.Pmh
module Trace = Nd_mem.Shard_sim.Trace
open Nd

(* An intrusive doubly-linked list threaded through a hashtable, one
   cell per resident word.  O(1) per word touched. *)

type cell = {
  addr : int;
  mutable prev : cell option;
  mutable next : cell option;
}

type t = {
  capacity : int;
  table : (int, cell) Hashtbl.t;
  mutable head : cell option;  (* most recent *)
  mutable tail : cell option;  (* least recent *)
  mutable occupancy : int;
  mutable misses : int;
  mutable accesses : int;
}

let create ~m =
  {
    capacity = m;
    table = Hashtbl.create (2 * m);
    head = None;
    tail = None;
    occupancy = 0;
    misses = 0;
    accesses = 0;
  }

let unlink t cell =
  (match cell.prev with
  | Some p -> p.next <- cell.next
  | None -> t.head <- cell.next);
  (match cell.next with
  | Some n -> n.prev <- cell.prev
  | None -> t.tail <- cell.prev);
  cell.prev <- None;
  cell.next <- None

let push_front t cell =
  cell.next <- t.head;
  cell.prev <- None;
  (match t.head with Some h -> h.prev <- Some cell | None -> t.tail <- Some cell);
  t.head <- Some cell

(* one word touched: true on a miss *)
let access t addr =
  t.accesses <- t.accesses + 1;
  match Hashtbl.find_opt t.table addr with
  | Some cell ->
    unlink t cell;
    push_front t cell;
    false
  | None ->
    t.misses <- t.misses + 1;
    if t.occupancy >= t.capacity then begin
      match t.tail with
      | Some victim ->
        unlink t victim;
        Hashtbl.remove t.table victim.addr;
        t.occupancy <- t.occupancy - 1
      | None -> assert false
    end;
    let cell = { addr; prev = None; next = None } in
    Hashtbl.replace t.table addr cell;
    push_front t cell;
    t.occupancy <- t.occupancy + 1;
    true

(* every word of a footprint in address order; returns the misses *)
let access_set t fp =
  let m = ref 0 in
  Is.iter
    (fun lo hi ->
      for a = lo to hi - 1 do
        if access t a then incr m
      done)
    fp;
  !m

let misses t = t.misses

let accesses t = t.accesses

(* misses of the depth-first traversal: every strand touches its
   footprint once *)
let q1 program ~m =
  let cache = create ~m in
  let rec go tree =
    match tree with
    | Spawn_tree.Leaf s -> ignore (access_set cache (Strand.footprint s))
    | Spawn_tree.Seq l | Spawn_tree.Par l -> List.iter go l
    | Spawn_tree.Fire { src; snk; _ } ->
      go src;
      go snk
  in
  go (Program.tree program);
  misses cache

let replay_serial ~machine trace =
  let h = Pmh.n_levels machine in
  let sims =
    Array.init h (fun i ->
        Array.init
          (Pmh.n_caches machine ~level:(i + 1))
          (fun _ -> create ~m:(Pmh.size machine ~level:(i + 1))))
  in
  for k = 0 to Trace.length trace - 1 do
    let proc = Trace.proc trace k and fp = Trace.footprint trace k in
    for j = 1 to h do
      let c = Pmh.cache_of_proc machine ~proc ~level:j in
      ignore (access_set sims.(j - 1).(c) fp)
    done
  done;
  let table = Nd_mem.Miss_table.create ~n_caches:(Array.map Array.length sims) in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun cache sim -> Nd_mem.Miss_table.add table ~level:(i + 1) ~cache (misses sim))
        row)
    sims;
  table
