module Is = Nd_util.Interval_set
module Heap = Nd_util.Heap
open Nd

type impl = Word | Interval

(* ------------------------------------------------------------------ *)
(* Word-exact LRU: an intrusive doubly-linked list threaded through a  *)
(* hashtable, one cell per resident word.  O(1) per word touched.      *)
(* ------------------------------------------------------------------ *)

type cell = {
  addr : int;
  mutable prev : cell option;
  mutable next : cell option;
}

type word_t = {
  w_capacity : int;
  table : (int, cell) Hashtbl.t;
  mutable head : cell option;  (* most recent *)
  mutable tail : cell option;  (* least recent *)
  mutable w_occupancy : int;
  mutable w_misses : int;
  mutable w_accesses : int;
}

let word_create ~m =
  {
    w_capacity = m;
    table = Hashtbl.create (2 * m);
    head = None;
    tail = None;
    w_occupancy = 0;
    w_misses = 0;
    w_accesses = 0;
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

let word_access t addr =
  t.w_accesses <- t.w_accesses + 1;
  match Hashtbl.find_opt t.table addr with
  | Some cell ->
    unlink t cell;
    push_front t cell;
    false
  | None ->
    t.w_misses <- t.w_misses + 1;
    if t.w_occupancy >= t.w_capacity then begin
      match t.tail with
      | Some victim ->
        unlink t victim;
        Hashtbl.remove t.table victim.addr;
        t.w_occupancy <- t.w_occupancy - 1
      | None -> assert false
    end;
    let cell = { addr; prev = None; next = None } in
    Hashtbl.replace t.table addr cell;
    push_front t cell;
    t.w_occupancy <- t.w_occupancy + 1;
    true

(* ------------------------------------------------------------------ *)
(* Interval-granular LRU.                                              *)
(*                                                                     *)
(* Residency is a set of segments in an ordered map keyed by low       *)
(* address; a segment (lo, hi, s0) holds the invariant that word [a]   *)
(* in [lo, hi) carries the virtual recency stamp [s0 + a - lo].  The   *)
(* invariant is closed under everything the simulator does: an access  *)
(* scans its footprint in address order and stamps every word with     *)
(* consecutive clock ticks, so the whole accessed range becomes one    *)
(* fresh linear-stamp segment; splitting a segment (on a partial hit)  *)
(* and shrinking it from the left (on eviction, which always removes   *)
(* the oldest = lowest-stamped = lowest-addressed words of the oldest  *)
(* segment) both preserve linearity.  Eviction order is driven by a    *)
(* min-heap over segment base stamps with lazy invalidation.           *)
(*                                                                     *)
(* Miss counts are bit-identical to the word-exact simulator: the scan *)
(* processes maximal hit/miss runs left to right and applies evictions *)
(* eagerly between runs, so a previously-resident word that the word   *)
(* simulator would evict before its own scan reaches it (footprints    *)
(* larger than the remaining capacity) is re-classified as a miss      *)
(* here, too.  Cost is O(log #segments) per run instead of O(1) per    *)
(* word — footprints built from block rows win by the block length.    *)
(* ------------------------------------------------------------------ *)

module Imap = Map.Make (Int)

type int_t = {
  i_capacity : int;
  mutable segs : (int * int) Imap.t;  (* lo -> (hi, stamp0) *)
  evict : int Heap.t;  (* key = stamp0, payload = segment lo *)
  mutable i_occupancy : int;
  mutable clock : int;
  mutable i_misses : int;
  mutable i_accesses : int;
}

let int_create ~m =
  {
    i_capacity = m;
    segs = Imap.empty;
    evict = Heap.create ();
    i_occupancy = 0;
    clock = 0;
    i_misses = 0;
    i_accesses = 0;
  }

(* Evict [need] words, globally oldest first.  Old segments go first
   (their stamps all precede the current access's); once the heap is
   exhausted only the scanned prefix of the current access remains, and
   its oldest words are the leftmost: report them via [dropped] so the
   caller trims the segment it is about to insert. *)
let int_evict t dropped need =
  let need = ref need in
  while !need > 0 && not (Heap.is_empty t.evict) do
    let s0, slo = Heap.pop t.evict in
    match Imap.find_opt slo t.segs with
    | Some (shi, s0') when s0' = s0 ->
      let len = shi - slo in
      if len <= !need then begin
        t.segs <- Imap.remove slo t.segs;
        t.i_occupancy <- t.i_occupancy - len;
        need := !need - len
      end
      else begin
        t.segs <-
          Imap.add (slo + !need) (shi, s0 + !need) (Imap.remove slo t.segs);
        Heap.push t.evict (s0 + !need) (slo + !need);
        t.i_occupancy <- t.i_occupancy - !need;
        need := 0
      end
    | Some _ | None -> ()  (* stale heap entry *)
  done;
  if !need > 0 then begin
    dropped := !dropped + !need;
    t.i_occupancy <- t.i_occupancy - !need
  end

(* Touch every word of [lo, hi) in address order; returns the misses. *)
let int_access_range t lo hi =
  if lo >= hi then 0
  else begin
    t.i_accesses <- t.i_accesses + (hi - lo);
    let miss0 = t.i_misses in
    let dropped = ref 0 in
    let cursor = ref lo in
    while !cursor < hi do
      let cover =
        match Imap.find_last_opt (fun k -> k <= !cursor) t.segs with
        | Some (slo, (shi, s0)) when shi > !cursor -> Some (slo, shi, s0)
        | Some _ | None -> None
      in
      match cover with
      | Some (slo, shi, s0) ->
        (* hit run [cursor, e): carve it out of the old segment; its
           words are restamped as part of the fresh segment below *)
        let e = min shi hi in
        t.segs <- Imap.remove slo t.segs;
        if slo < !cursor then
          (* left remainder keeps lo and s0: its heap entry stays valid *)
          t.segs <- Imap.add slo (!cursor, s0) t.segs;
        if e < shi then begin
          t.segs <- Imap.add e (shi, s0 + (e - slo)) t.segs;
          Heap.push t.evict (s0 + (e - slo)) e
        end;
        cursor := e
      | None ->
        (* miss run [cursor, e): up to the next resident segment *)
        let e =
          match Imap.find_first_opt (fun k -> k > !cursor) t.segs with
          | Some (nlo, _) -> min nlo hi
          | None -> hi
        in
        let run = e - !cursor in
        t.i_misses <- t.i_misses + run;
        t.i_occupancy <- t.i_occupancy + run;
        if t.i_occupancy > t.i_capacity then
          int_evict t dropped (t.i_occupancy - t.i_capacity);
        cursor := e
    done;
    let seg_lo = lo + !dropped in
    if seg_lo < hi then begin
      t.segs <- Imap.add seg_lo (hi, t.clock + !dropped) t.segs;
      Heap.push t.evict (t.clock + !dropped) seg_lo
    end;
    t.clock <- t.clock + (hi - lo);
    t.i_misses - miss0
  end

(* ------------------------------------------------------------------ *)
(* Front end                                                           *)
(* ------------------------------------------------------------------ *)

type t = W of word_t | I of int_t

let default = ref None

let default_impl () =
  match !default with
  | Some impl -> impl
  | None ->
    let impl =
      match Sys.getenv_opt "NDSIM_CACHE_SIM" with
      | Some ("word" | "WORD") -> Word
      | Some _ | None -> Interval
    in
    default := Some impl;
    impl

let set_default_impl impl = default := Some impl

let create ?impl ~m () =
  if m < 1 then invalid_arg "Cache_sim.create: m < 1";
  match (match impl with Some i -> i | None -> default_impl ()) with
  | Word -> W (word_create ~m)
  | Interval -> I (int_create ~m)

let impl = function W _ -> Word | I _ -> Interval

let access t addr =
  match t with
  | W w -> word_access w addr
  | I i -> int_access_range i addr (addr + 1) > 0

let access_set t fp =
  match t with
  | W w ->
    let m = ref 0 in
    Is.iter
      (fun lo hi ->
        for a = lo to hi - 1 do
          if word_access w a then incr m
        done)
      fp;
    !m
  | I i -> Is.fold (fun lo hi acc -> acc + int_access_range i lo hi) fp 0

let misses = function W w -> w.w_misses | I i -> i.i_misses

let accesses = function W w -> w.w_accesses | I i -> i.i_accesses

let q1 ?impl program ~m =
  let cache = create ?impl ~m () in
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
