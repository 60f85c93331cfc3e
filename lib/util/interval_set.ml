(* Sorted disjoint half-open intervals in one immutable int array, in
   one of two layouts told apart by the array's parity:

   - plain, even length: [| lo0; hi0; lo1; hi1; ... |], 16 bytes an
     interval, where a list of pairs costs 48 bytes and two blocks;
   - runs, odd length: [| 0; lo; hi; stride; count; ... |], one 4-int
     piece for the [count] intervals [lo + i·stride, hi + i·stride), so a
     b×b block of a row-major matrix costs 5 words instead of 2b.

   The layout is a function of the set: the intervals are cut from left
   to right into maximal runs (equal widths at one stride), and the set
   takes the run layout exactly when that is shorter, 1 + 4·pieces <
   2·intervals.  Equal sets are therefore equal arrays. *)

type t = int array
(* invariant: the intervals are sorted, disjoint, non-adjacent and non
   empty.  In the run layout the pieces are the greedy split, a piece
   of one interval has stride 0, and 1 + 4·pieces < 2·intervals, so a
   set of one or two intervals is plain.  Sets are never mutated once
   built, so operations may return an operand unchanged. *)

let empty = [||]

let is_empty t = Array.length t = 0

let is_runs t = Array.length t land 1 = 1

let interval lo hi =
  if lo > hi then invalid_arg "Interval_set.interval: lo > hi";
  if lo = hi then empty else [| lo; hi |]

let strided ~lo ~width ~stride ~count =
  if width < 0 || count < 0 || stride < width then
    invalid_arg "Interval_set.strided: negative size or stride < width";
  if width = 0 || count = 0 then empty
  else if count = 1 || stride = width then
    [| lo; lo + ((count - 1) * stride) + width |]
  else if count = 2 then [| lo; lo + width; lo + stride; lo + stride + width |]
  else [| 0; lo; lo + width; stride; count |]

let iter f t =
  if is_runs t then
    for q = 0 to (Array.length t / 4) - 1 do
      let p = 1 + (4 * q) in
      let lo = t.(p) and hi = t.(p + 1) and stride = t.(p + 2) in
      for i = 0 to t.(p + 3) - 1 do
        f (lo + (i * stride)) (hi + (i * stride))
      done
    done
  else
    for k = 0 to (Array.length t / 2) - 1 do
      f t.(2 * k) t.((2 * k) + 1)
    done

let fold f t init =
  let acc = ref init in
  if is_runs t then
    for q = 0 to (Array.length t / 4) - 1 do
      let p = 1 + (4 * q) in
      let lo = t.(p) and hi = t.(p + 1) and stride = t.(p + 2) in
      for i = 0 to t.(p + 3) - 1 do
        acc := f (lo + (i * stride)) (hi + (i * stride)) !acc
      done
    done
  else
    for k = 0 to (Array.length t / 2) - 1 do
      acc := f t.(2 * k) t.((2 * k) + 1) !acc
    done;
  !acc

let n_intervals t =
  if is_runs t then begin
    let k = ref 0 in
    for q = 0 to (Array.length t / 4) - 1 do
      k := !k + t.(4 + (4 * q))
    done;
    !k
  end
  else Array.length t / 2

let cardinal t =
  if is_runs t then begin
    let n = ref 0 in
    for q = 0 to (Array.length t / 4) - 1 do
      let p = 1 + (4 * q) in
      n := !n + ((t.(p + 1) - t.(p)) * t.(p + 3))
    done;
    !n
  end
  else fold (fun lo hi n -> n + (hi - lo)) t 0

(* ------------------------ the greedy split ------------------------- *)

(* Takes a set's intervals in increasing order and cuts them, from left
   to right, into maximal runs.  [intervals] counts them and [runs] the
   runs closed so far; the open run has [count] intervals of [width]
   from [lo] at [stride].  A non-empty [out] receives the set as it
   comes: each interval when [out] is plain, each run as it closes when
   [out] is in the run layout. *)
type splitter = {
  out : int array;
  mutable intervals : int;
  mutable runs : int;
  mutable lo : int;
  mutable width : int;
  mutable stride : int;
  mutable count : int;
}

let splitter out =
  { out; intervals = 0; runs = 0; lo = 0; width = 0; stride = 0; count = 0 }

let close s =
  if s.count > 0 then begin
    if is_runs s.out then begin
      let p = 1 + (4 * s.runs) in
      s.out.(p) <- s.lo;
      s.out.(p + 1) <- s.lo + s.width;
      s.out.(p + 2) <- (if s.count = 1 then 0 else s.stride);
      s.out.(p + 3) <- s.count
    end;
    s.runs <- s.runs + 1;
    s.count <- 0
  end

let push s lo hi =
  if Array.length s.out > 0 && not (is_runs s.out) then begin
    s.out.(2 * s.intervals) <- lo;
    s.out.((2 * s.intervals) + 1) <- hi
  end;
  s.intervals <- s.intervals + 1;
  if s.count > 0 && hi - lo = s.width
     && (s.count = 1 || lo - s.lo = s.count * s.stride)
  then begin
    if s.count = 1 then s.stride <- lo - s.lo;
    s.count <- s.count + 1
  end
  else begin
    close s;
    s.lo <- lo;
    s.width <- hi - lo;
    s.count <- 1
  end

let runs_shorter ~intervals ~runs = 1 + (4 * runs) < 2 * intervals

(* The greedy split of the plain [t.(0 .. 2k-1)]: the number of runs,
   counted only while it is at most [limit], each written to a
   non-empty [out] in the run layout.  A run's second interval fixes
   its stride. *)
let split t k ~limit out =
  let runs = ref 0 and i = ref 0 in
  while !i < k && !runs <= limit do
    let lo = t.(2 * !i) in
    let width = t.((2 * !i) + 1) - lo in
    let stride = if !i + 1 < k then t.((2 * !i) + 2) - lo else 0 in
    let j = ref (!i + 1) in
    while
      !j < k
      && t.((2 * !j) + 1) - t.(2 * !j) = width
      && t.(2 * !j) - t.((2 * !j) - 2) = stride
    do
      incr j
    done;
    if Array.length out > 0 then begin
      let p = 1 + (4 * !runs) in
      out.(p) <- lo;
      out.(p + 1) <- lo + width;
      out.(p + 2) <- (if !j - !i = 1 then 0 else stride);
      out.(p + 3) <- !j - !i
    end;
    incr runs;
    i := !j
  done;
  !runs

(* The set held plain in [buf.(0 .. n-1)], in its canonical layout:
   [buf] itself when it is plain and exactly that long.  Counting stops
   once the runs rule the run layout out, which for most plain sets is
   about halfway. *)
let canonical buf n =
  let k = n / 2 in
  let runs = if k < 3 then k else split buf k ~limit:((k - 1) / 2) empty in
  if runs_shorter ~intervals:k ~runs then begin
    let out = Array.make (1 + (4 * runs)) 0 in
    ignore (split buf k ~limit:max_int out);
    out
  end
  else if n = Array.length buf then buf
  else Array.sub buf 0 n

(* the plain layout of [t] *)
let plain t =
  if not (is_runs t) then t
  else begin
    let dst = Array.make (2 * n_intervals t) 0 in
    let n = ref 0 in
    for q = 0 to (Array.length t / 4) - 1 do
      let p = 1 + (4 * q) in
      let lo = t.(p) and hi = t.(p + 1) and stride = t.(p + 2) in
      for i = 0 to t.(p + 3) - 1 do
        dst.(!n) <- lo + (i * stride);
        dst.(!n + 1) <- hi + (i * stride);
        n := !n + 2
      done
    done;
    dst
  end

let of_intervals l =
  let l =
    List.stable_sort
      (fun (x, _) (y, _) -> Int.compare x y)
      (List.filter (fun (lo, hi) -> lo < hi) l)
  in
  (* coalesce overlapping and adjacent pairs into [buf] *)
  let buf = Array.make (2 * List.length l) 0 in
  let n =
    List.fold_left
      (fun n (lo, hi) ->
        if n > 0 && lo <= buf.(n - 1) then begin
          if hi > buf.(n - 1) then buf.(n - 1) <- hi;
          n
        end
        else begin
          buf.(n) <- lo;
          buf.(n + 1) <- hi;
          n + 2
        end)
      0 l
  in
  canonical buf n

(* Translation moves every interval by the same amount, so neither the
   greedy split nor the layout changes: shift each [lo] and [hi], and
   in the run layout leave the tag, strides and counts. *)
let shift t d =
  if d = 0 then t
  else if is_runs t then
    Array.mapi (fun i x -> if i land 3 = 1 || i land 3 = 2 then x + d else x) t
  else Array.map (fun x -> x + d) t

(* ------------------- binary operations, plain ---------------------- *)

(* The endpoint sweep behind union, inter, diff and absorb on two plain
   operands.  It walks the endpoints of [a] and [b] in increasing
   order, one coordinate per step: an endpoint both operands share is
   consumed in the same step, which merges touching pieces and never
   yields an empty one.  Past an odd number of [a]'s endpoints the
   sweep is inside [a], likewise for [b]; it is inside the result iff
   bit [2·(in a) + (in b)] of [mask] is set, and each coordinate where
   that flips is a result endpoint.  Writes the k-th result endpoint to
   [dst.(k)] unless [dst] is empty.  Returns the number of result
   endpoints, or when [measure] the result's cardinality.  [i], [j]
   index [a] and [b], [n] counts result endpoints so far, [card] sums
   their signed coordinates, and [inside] is the result membership left
   of the next coordinate. *)
let rec sweep_from mask measure a b dst i j n card inside =
  let na = Array.length a and nb = Array.length b in
  if i < na && j < nb then begin
    let x = Int.min a.(i) b.(j) in
    let i = if a.(i) = x then i + 1 else i in
    let j = if b.(j) = x then j + 1 else j in
    let now = (mask lsr (((i land 1) lsl 1) lor (j land 1))) land 1 = 1 in
    if now = inside then sweep_from mask measure a b dst i j n card inside
    else begin
      if Array.length dst > 0 then dst.(n) <- x;
      sweep_from mask measure a b dst i j (n + 1)
        (if now then card - x else card + x)
        now
    end
  end
  else begin
    (* One operand is exhausted, so the sweep is outside it for good and
       result membership follows the other operand alone: either all of
       that operand's remaining endpoints are result endpoints or none. *)
    let a_left = i < na in
    let rest = if a_left then a else b and k = if a_left then i else j in
    let len = Array.length rest - k in
    if mask land (if a_left then 0b0100 else 0b0010) = 0 then
      if measure then card else n
    else begin
      if Array.length dst > 0 then Array.blit rest k dst n len;
      if measure then begin
        (* even positions of [rest] open a piece, odd ones close it *)
        let card = ref card in
        for m = k to Array.length rest - 1 do
          card := if m land 1 = 1 then !card + rest.(m) else !card - rest.(m)
        done;
        !card
      end
      else n + len
    end
  end

let sweep mask ~measure a b dst = sweep_from mask measure a b dst 0 0 0 0 false

let mask_union = 0b1110 (* in a, in b, or both *)

let mask_inter = 0b1000 (* in both *)

let mask_diff = 0b0100 (* in a only *)

(* [a] and [b] expand together to at most 256 words (see [dispatch]),
   so every temporary here dies in the minor heap.  Their union has at
   most as many endpoints as both, and usually about that many, so one
   pass fills a buffer of that size, copied out in the result's layout.
   [inter] and [diff] take one pass to size the result and one to fill
   it, so an empty result costs nothing; then a read-only scan picks
   its layout. *)
let plain_merge mask a b =
  if mask = mask_union then begin
    let buf = Array.make (Array.length a + Array.length b) 0 in
    canonical buf (sweep mask ~measure:false a b buf)
  end
  else begin
    let n = sweep mask ~measure:false a b empty in
    if n = 0 then empty
    else begin
      let dst = Array.make n 0 in
      ignore (sweep mask ~measure:false a b dst);
      canonical dst n
    end
  end

(* -------------------- binary operations, runs ---------------------- *)

(* Reads a set's endpoints in increasing order in either layout: [x] is
   the next endpoint, [at] its index (plain) or its piece's index
   (runs), [rep] the repetition within the piece, and [inside] whether
   the endpoints read so far leave the reader inside the set.  [x] is
   meaningless once [at] runs off the array. *)
type cursor = {
  set : int array;
  mutable at : int;
  mutable rep : int;
  mutable inside : bool;
  mutable x : int;
}

let cursor t =
  let at = if is_runs t then 1 else 0 in
  { set = t; at; rep = 0; inside = false; x = (if at < Array.length t then t.(at) else 0) }

let more c = c.at < Array.length c.set

let advance c =
  let t = c.set in
  if not (is_runs t) then begin
    c.at <- c.at + 1;
    if c.at < Array.length t then c.x <- t.(c.at)
  end
  else if not c.inside then c.x <- t.(c.at + 1) + (c.rep * t.(c.at + 2))
  else if c.rep + 1 < t.(c.at + 3) then begin
    c.rep <- c.rep + 1;
    c.x <- t.(c.at) + (c.rep * t.(c.at + 2))
  end
  else begin
    c.rep <- 0;
    c.at <- c.at + 4;
    if c.at < Array.length t then c.x <- t.(c.at)
  end;
  c.inside <- not c.inside

(* [sweep_from]'s walk over two cursors: it feeds the result's
   intervals to [s] and returns their cardinality.  Once an operand is
   exhausted it goes on only while the other alone can still put
   elements in the result. *)
let cursor_sweep mask a b s =
  let a = cursor a and b = cursor b in
  let inside = ref false and lo = ref 0 and card = ref 0 in
  while
    (more a && (more b || mask land 0b0100 <> 0))
    || (more b && mask land 0b0010 <> 0)
  do
    let x =
      if not (more a) then b.x else if not (more b) then a.x else Int.min a.x b.x
    in
    if more a && a.x = x then advance a;
    if more b && b.x = x then advance b;
    let bit = (if a.inside then 2 else 0) lor if b.inside then 1 else 0 in
    let now = (mask lsr bit) land 1 = 1 in
    if now <> !inside then begin
      inside := now;
      if now then lo := x
      else begin
        card := !card + (x - !lo);
        push s !lo x
      end
    end
  done;
  close s;
  !card

(* one pass to count the result's intervals and runs, one to write it
   in its layout *)
let cursor_merge mask a b =
  let s = splitter empty in
  ignore (cursor_sweep mask a b s);
  if s.intervals = 0 then empty
  else begin
    let intervals = s.intervals and runs = s.runs in
    let out =
      Array.make
        (if runs_shorter ~intervals ~runs then 1 + (4 * runs) else 2 * intervals)
        0
    in
    ignore (cursor_sweep mask a b (splitter out));
    out
  end

(* Operands that expand together to at most 256 words, the largest
   array the minor heap takes, are swept plain, run operands as copies
   that die there.  Larger ones are read in place through cursors,
   which step more slowly but allocate nothing but the result. *)
let dispatch mask plain_op cursor_op a b =
  if 2 * (n_intervals a + n_intervals b) <= 256 then
    plain_op mask (plain a) (plain b)
  else cursor_op mask a b

let merge mask a b = dispatch mask plain_merge cursor_merge a b

(* The least element and one past the greatest of a non-empty set.
   Sets whose spans do not overlap share nothing, so [inter], [diff],
   [overlaps] and [absorb] answer them without a sweep. *)
let first t = if is_runs t then t.(1) else t.(0)

let last t =
  let n = Array.length t in
  if is_runs t then t.(n - 3) + ((t.(n - 1) - 1) * t.(n - 2)) else t.(n - 1)

let apart a b = is_empty a || is_empty b || last a <= first b || last b <= first a

let union a b =
  if is_empty a then b else if is_empty b then a else merge mask_union a b

let inter a b = if apart a b then empty else merge mask_inter a b

let diff a b = if apart a b then a else merge mask_diff a b

(* Steps two cursors like [cursor_sweep] and stops as soon as both are
   inside after a coordinate. *)
let overlaps a b =
  let rec go a b =
    more a && more b
    &&
    let x = Int.min a.x b.x in
    if a.x = x then advance a;
    if b.x = x then advance b;
    (a.inside && b.inside) || go a b
  in
  (not (apart a b)) && go (cursor a) (cursor b)

let absorb acc t =
  let n =
    if apart t !acc then cardinal t
    else
      dispatch mask_diff
        (fun mask t a -> sweep mask ~measure:true t a empty)
        (fun mask t a -> cursor_sweep mask t a (splitter empty))
        t !acc
  in
  if n > 0 then acc := union !acc t;
  n

(* ----------------------------- queries ----------------------------- *)

let mem x t =
  (* binary search for the last interval, or piece, starting at or
     before [x] *)
  let rec go first width lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.(first + (width * mid)) <= x then go first width (mid + 1) hi
      else go first width lo mid
  in
  if is_runs t then begin
    let q = go 1 4 0 (Array.length t / 4) in
    q > 0
    &&
    let p = 1 + (4 * (q - 1)) in
    let stride = t.(p + 2) in
    let i = if stride = 0 then 0 else Int.min (t.(p + 3) - 1) ((x - t.(p)) / stride) in
    x < t.(p + 1) + (i * stride)
  end
  else begin
    let k = go 0 2 0 (Array.length t / 2) in
    k > 0 && x < t.((2 * k) - 1)
  end

let intervals t = List.rev (fold (fun lo hi acc -> (lo, hi) :: acc) t [])

let equal (a : t) b = a = b

let pp ppf t =
  Format.fprintf ppf "{";
  let first = ref true in
  iter
    (fun lo hi ->
      if not !first then Format.fprintf ppf ", ";
      first := false;
      if hi = lo + 1 then Format.fprintf ppf "%d" lo
      else Format.fprintf ppf "[%d,%d)" lo hi)
    t;
  Format.fprintf ppf "}"
