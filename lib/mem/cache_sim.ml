module Is = Nd_util.Interval_set
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
(* Residency is a set of disjoint segments; a segment (lo, hi, s0)     *)
(* holds the invariant that word [a] in [lo, hi) carries the virtual   *)
(* recency stamp [s0 + a - lo].  The invariant is closed under         *)
(* everything the simulator does: an access scans its footprint in     *)
(* address order and stamps every word with consecutive clock ticks,   *)
(* so the whole accessed range becomes one fresh linear-stamp segment; *)
(* splitting a segment (on a partial hit) and shrinking it from the    *)
(* left (on eviction, which always removes the oldest = lowest-stamped *)
(* = lowest-addressed words of the oldest segment) both preserve       *)
(* linearity.                                                          *)
(*                                                                     *)
(* Segments live in slots of growable int arrays, so an access         *)
(* allocates nothing once the arrays have grown.  Two structures       *)
(* thread through the slots:                                           *)
(*                                                                     *)
(* - an address index: a splay tree in [left]/[right], searched by     *)
(*   containment.  A footprint is scanned upwards through addresses,   *)
(*   so the segment after the one just carved sits next to the root.   *)
(* - a recency list in [older]/[newer], oldest first, whose head is    *)
(*   the next victim.  It stays in stamp order without a priority      *)
(*   queue because the stamp ranges of live segments are disjoint, a   *)
(*   carved segment's left and right remainders take their original's  *)
(*   place, a partly evicted head keeps its place, and an access's     *)
(*   fresh segment is newer than every resident word.                  *)
(*                                                                     *)
(* List order alone decides eviction; the stamps are kept as the       *)
(* witness that [validate] checks it against.                          *)
(*                                                                     *)
(* Slot 0 is nil for every link and doubles as the splay's header.     *)
(*                                                                     *)
(* Miss counts are bit-identical to the word-exact simulator: the scan *)
(* processes maximal hit/miss runs left to right and applies evictions *)
(* eagerly between runs, so a previously-resident word that the word   *)
(* simulator would evict before its own scan reaches it (footprints    *)
(* larger than the remaining capacity) is re-classified as a miss      *)
(* here, too.  Cost is amortized O(log #segments) per run instead of   *)
(* O(1) per word — footprints built from block rows win by the block   *)
(* length.                                                             *)
(* ------------------------------------------------------------------ *)

type int_t = {
  i_capacity : int;
  mutable seg_lo : int array;
  mutable seg_hi : int array;
  mutable stamp0 : int array;
  mutable left : int array;
  mutable right : int array;
  mutable older : int array;
  mutable newer : int array;
  mutable root : int;
  mutable oldest : int;
  mutable newest : int;
  mutable free : int;  (* vacated slots, chained through [newer] *)
  mutable used : int;  (* slots [1, used] have been handed out *)
  mutable i_occupancy : int;
  mutable clock : int;
  mutable i_misses : int;
  mutable i_accesses : int;
}

let int_create ~m =
  (* at most [m] segments are live at once; start small, since a PMH
     has many caches *)
  let n = 1 + min m 15 in
  {
    i_capacity = m;
    seg_lo = Array.make n 0;
    seg_hi = Array.make n 0;
    stamp0 = Array.make n 0;
    left = Array.make n 0;
    right = Array.make n 0;
    older = Array.make n 0;
    newer = Array.make n 0;
    root = 0;
    oldest = 0;
    newest = 0;
    free = 0;
    used = 0;
    i_occupancy = 0;
    clock = 0;
    i_misses = 0;
    i_accesses = 0;
  }

let int_alloc t =
  let x = t.free in
  if x <> 0 then begin
    t.free <- t.newer.(x);
    x
  end
  else begin
    if t.used + 1 = Array.length t.seg_lo then begin
      let grow a =
        let b = Array.make (2 * Array.length a) 0 in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      t.seg_lo <- grow t.seg_lo;
      t.seg_hi <- grow t.seg_hi;
      t.stamp0 <- grow t.stamp0;
      t.left <- grow t.left;
      t.right <- grow t.right;
      t.older <- grow t.older;
      t.newer <- grow t.newer
    end;
    t.used <- t.used + 1;
    t.used
  end

(* Top-down splay (Sleator and Tarjan) of the tree rooted at [x]
   towards address [a].  Returns the new root: the segment holding [a]
   if one is resident, else the last segment on the search path, which
   is the nearest one below or above [a].  When that root lies below
   [a], the search stopped for want of a right child, so its successor
   is at the end of the left spine the splay linked into its right
   subtree. *)
let splay t x a =
  let lo = t.seg_lo and hi = t.seg_hi and left = t.left and right = t.right in
  left.(0) <- 0;
  right.(0) <- 0;
  let l = ref 0 and r = ref 0 and x = ref x and searching = ref true in
  while !searching do
    let v = !x in
    if a < lo.(v) then begin
      let y = left.(v) in
      if y = 0 then searching := false
      else if a < lo.(y) then begin
        (* rotate right, then link right *)
        left.(v) <- right.(y);
        right.(y) <- v;
        x := y;
        if left.(y) = 0 then searching := false
        else begin
          left.(!r) <- y;
          r := y;
          x := left.(y)
        end
      end
      else begin
        left.(!r) <- v;
        r := v;
        x := y
      end
    end
    else if a >= hi.(v) then begin
      let y = right.(v) in
      if y = 0 then searching := false
      else if a >= hi.(y) then begin
        (* rotate left, then link left *)
        right.(v) <- left.(y);
        left.(y) <- v;
        x := y;
        if right.(y) = 0 then searching := false
        else begin
          right.(!l) <- y;
          l := y;
          x := right.(y)
        end
      end
      else begin
        right.(!l) <- v;
        l := v;
        x := y
      end
    end
    else searching := false
  done;
  let v = !x in
  right.(!l) <- left.(v);
  left.(!r) <- right.(v);
  left.(v) <- right.(0);
  right.(v) <- left.(0);
  v

let rec leftmost t x = if x = 0 || t.left.(x) = 0 then x else leftmost t t.left.(x)

(* Link slot [y] into the recency list just after [x] (0: as oldest). *)
let link_after t x y =
  let n = if x = 0 then t.oldest else t.newer.(x) in
  t.older.(y) <- x;
  t.newer.(y) <- n;
  if x = 0 then t.oldest <- y else t.newer.(x) <- y;
  if n = 0 then t.newest <- y else t.older.(n) <- y

(* Drop the root segment [x] from both structures and free its slot. *)
let int_remove_root t x =
  let l = t.left.(x) and r = t.right.(x) in
  if l = 0 then t.root <- r
  else begin
    (* all of [l] lies below [x]: its maximum comes up with no right child *)
    let m = splay t l t.seg_lo.(x) in
    t.right.(m) <- r;
    t.root <- m
  end;
  let o = t.older.(x) and n = t.newer.(x) in
  if o = 0 then t.oldest <- n else t.newer.(o) <- n;
  if n = 0 then t.newest <- o else t.older.(n) <- o;
  t.newer.(x) <- t.free;
  t.free <- x

(* Evict [need] words, globally oldest first, and return how many are
   left over.  Old segments go first (their stamps all precede the
   current access's); once none is left only the scanned prefix of the
   current access remains, and its oldest words are the leftmost: the
   caller trims them from the segment it is about to insert. *)
let int_evict t need =
  let need = ref need in
  while !need > 0 && t.oldest <> 0 do
    let x = t.oldest in
    let len = t.seg_hi.(x) - t.seg_lo.(x) in
    if len <= !need then begin
      t.root <- splay t t.root t.seg_lo.(x);
      int_remove_root t x;
      t.i_occupancy <- t.i_occupancy - len;
      need := !need - len
    end
    else begin
      (* the head shrinks from the left and stays the head *)
      t.seg_lo.(x) <- t.seg_lo.(x) + !need;
      t.stamp0.(x) <- t.stamp0.(x) + !need;
      t.i_occupancy <- t.i_occupancy - !need;
      need := 0
    end
  done;
  !need

(* Touch every word of [lo, hi) in address order; returns the misses. *)
let int_access_range t lo hi =
  if lo >= hi then 0
  else begin
    t.i_accesses <- t.i_accesses + (hi - lo);
    let miss0 = t.i_misses in
    let dropped = ref 0 in
    let cursor = ref lo in
    while !cursor < hi do
      let c = !cursor in
      let x = if t.root = 0 then 0 else splay t t.root c in
      t.root <- x;
      if x <> 0 && t.seg_lo.(x) <= c && c < t.seg_hi.(x) then begin
        (* hit run [c, e): carve it out of segment [x]; its words are
           restamped as part of the fresh segment below *)
        let slo = t.seg_lo.(x) and shi = t.seg_hi.(x) in
        let e = min shi hi in
        if slo < c then begin
          t.seg_hi.(x) <- c;
          if e < shi then begin
            (* the right remainder follows [x] by address and by stamp *)
            let y = int_alloc t in
            t.seg_lo.(y) <- e;
            t.seg_hi.(y) <- shi;
            t.stamp0.(y) <- t.stamp0.(x) + (e - slo);
            t.left.(y) <- 0;
            t.right.(y) <- t.right.(x);
            t.right.(x) <- y;
            link_after t x y
          end
        end
        else if e < shi then begin
          t.seg_lo.(x) <- e;
          t.stamp0.(x) <- t.stamp0.(x) + (e - slo)
        end
        else int_remove_root t x;
        cursor := e
      end
      else begin
        (* miss run [c, e): up to the next resident segment *)
        let next =
          if x = 0 || t.seg_lo.(x) > c then x else leftmost t t.right.(x)
        in
        let e = if next = 0 then hi else min t.seg_lo.(next) hi in
        let run = e - c in
        t.i_misses <- t.i_misses + run;
        t.i_occupancy <- t.i_occupancy + run;
        if t.i_occupancy > t.i_capacity then begin
          let rest = int_evict t (t.i_occupancy - t.i_capacity) in
          dropped := !dropped + rest;
          t.i_occupancy <- t.i_occupancy - rest
        end;
        cursor := e
      end
    done;
    let seg_lo = lo + !dropped in
    if seg_lo < hi then begin
      (* the fresh segment overlaps nothing resident: every segment it
         met was carved or evicted *)
      let y = int_alloc t in
      t.seg_lo.(y) <- seg_lo;
      t.seg_hi.(y) <- hi;
      t.stamp0.(y) <- t.clock + !dropped;
      (if t.root = 0 then begin
         t.left.(y) <- 0;
         t.right.(y) <- 0
       end
       else
         let x = splay t t.root seg_lo in
         if t.seg_lo.(x) < seg_lo then begin
           t.left.(y) <- x;
           t.right.(y) <- t.right.(x);
           t.right.(x) <- 0
         end
         else begin
           t.right.(y) <- x;
           t.left.(y) <- t.left.(x);
           t.left.(x) <- 0
         end);
      t.root <- y;
      link_after t t.newest y
    end;
    t.clock <- t.clock + (hi - lo);
    t.i_misses - miss0
  end

let int_validate t =
  let fail fmt = Printf.ksprintf failwith ("Cache_sim.validate: " ^^ fmt) in
  let in_tree = Bytes.make (Array.length t.seg_lo) '\000' in
  let segs = ref 0 and words = ref 0 and last_hi = ref min_int in
  let rec walk x =
    if x <> 0 then begin
      if Bytes.get in_tree x <> '\000' then fail "slot %d reached twice" x;
      Bytes.set in_tree x '\001';
      walk t.left.(x);
      let lo = t.seg_lo.(x) and hi = t.seg_hi.(x) in
      if lo >= hi then fail "empty segment [%d, %d)" lo hi;
      if lo < !last_hi then
        fail "segment [%d, %d) is not after its predecessor" lo hi;
      last_hi := hi;
      incr segs;
      words := !words + (hi - lo);
      walk t.right.(x)
    end
  in
  walk t.root;
  if !words <> t.i_occupancy then
    fail "occupancy %d, but segments hold %d words" t.i_occupancy !words;
  if t.i_occupancy > t.i_capacity then
    fail "occupancy %d over capacity %d" t.i_occupancy t.i_capacity;
  let listed = ref 0 and prev = ref 0 and stamp_end = ref min_int in
  let x = ref t.oldest in
  while !x <> 0 do
    let v = !x in
    if Bytes.get in_tree v <> '\001' then
      fail "listed slot %d is not a live segment (or is listed twice)" v;
    Bytes.set in_tree v '\002';
    if t.older.(v) <> !prev then fail "slot %d has a broken back link" v;
    if t.stamp0.(v) < !stamp_end then
      fail "slot %d's stamps start at %d, before %d" v t.stamp0.(v) !stamp_end;
    stamp_end := t.stamp0.(v) + (t.seg_hi.(v) - t.seg_lo.(v));
    incr listed;
    prev := v;
    x := t.newer.(v)
  done;
  if t.newest <> !prev then fail "newest is slot %d, list ends at %d" t.newest !prev;
  if !listed <> !segs then
    fail "%d segments resident, %d on the recency list" !segs !listed;
  if !stamp_end > t.clock then
    fail "stamps reach %d, past the clock %d" !stamp_end t.clock;
  (* every slot handed out is either live or free *)
  let free = ref 0 and x = ref t.free in
  while !x <> 0 do
    let v = !x in
    if v > t.used || Bytes.get in_tree v <> '\000' then
      fail "free slot %d is live, unused or freed twice" v;
    Bytes.set in_tree v '\003';
    incr free;
    x := t.newer.(v)
  done;
  if !segs + !free <> t.used then
    fail "%d slots handed out, %d live and %d free" t.used !segs !free

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

let validate = function W _ -> () | I i -> int_validate i

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
