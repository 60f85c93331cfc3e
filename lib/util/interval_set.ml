(* Sorted disjoint half-open intervals packed into one int array
   [| lo0; hi0; lo1; hi1; ... |]: 16 bytes an interval and one heap block
   a set, where a list of pairs costs 48 bytes and two blocks an
   interval.  Every binary operation is linear in the endpoints of both
   operands. *)

type t = int array
(* invariant: even length; lo0 < hi0 < lo1 < hi1 < ... — sorted,
   disjoint, non-adjacent, every lo < hi.  Sets are never mutated once
   built, so operations may return an operand unchanged. *)

let empty = [||]

let is_empty t = Array.length t = 0

let interval lo hi =
  if lo > hi then invalid_arg "Interval_set.interval: lo > hi";
  if lo = hi then empty else [| lo; hi |]

let singleton x = [| x; x + 1 |]

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
  if n = Array.length buf then buf else Array.sub buf 0 n

(* Translation preserves ordering, disjointness and non-adjacency, so the
   invariant survives a plain map. *)
let shift t d = if d = 0 then t else Array.map (fun x -> x + d) t

(* The endpoint sweep behind union, inter, diff and absorb.  It walks
   the endpoints of [a] and [b] in increasing order, one coordinate per
   step: an endpoint both operands share is consumed in the same step,
   which merges touching pieces and never yields an empty one.  Past an
   odd number of [a]'s endpoints the sweep is inside [a], likewise for
   [b]; it is inside the result iff bit [2·(in a) + (in b)] of [mask] is
   set, and each coordinate where that flips is a result endpoint.
   Writes the k-th result endpoint to [dst.(k)] unless [dst] is empty.
   Returns the number of result endpoints, or when [measure] the
   result's cardinality.  [i], [j] index [a] and [b], [n] counts result
   endpoints so far, [card] sums their signed coordinates, and [inside]
   is the result membership left of the next coordinate. *)
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

(* one pass to size the result, one to fill it: a single allocation *)
let merge mask a b =
  let n = sweep mask ~measure:false a b empty in
  if n = 0 then empty
  else begin
    let dst = Array.make n 0 in
    ignore (sweep mask ~measure:false a b dst);
    dst
  end

let mask_union = 0b1110 (* in a, in b, or both *)

let mask_inter = 0b1000 (* in both *)

let mask_diff = 0b0100 (* in a only *)

let union a b =
  if is_empty a then b else if is_empty b then a else merge mask_union a b

let inter a b = if is_empty a || is_empty b then empty else merge mask_inter a b

let diff a b = if is_empty a || is_empty b then a else merge mask_diff a b

let mem x t =
  (* binary search for the last interval starting at or before [x] *)
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.(2 * mid) <= x then go (mid + 1) hi else go lo mid
  in
  let k = go 0 (Array.length t / 2) in
  k > 0 && x < t.((2 * k) - 1)

let iter f t =
  for k = 0 to (Array.length t / 2) - 1 do
    f t.(2 * k) t.((2 * k) + 1)
  done

let fold f t init =
  let acc = ref init in
  for k = 0 to (Array.length t / 2) - 1 do
    acc := f t.(2 * k) t.((2 * k) + 1) !acc
  done;
  !acc

let cardinal t = fold (fun lo hi n -> n + (hi - lo)) t 0

let intervals t =
  let rec go k acc =
    if k < 0 then acc else go (k - 2) ((t.(k), t.(k + 1)) :: acc)
  in
  go (Array.length t - 2) []

let equal (a : t) b = a = b

let overlaps a b =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    i < na && j < nb
    && (Int.max a.(i) b.(j) < Int.min a.(i + 1) b.(j + 1)
       || if a.(i + 1) < b.(j + 1) then go (i + 2) j else go i (j + 2))
  in
  go 0 0

let absorb acc t =
  let n = sweep mask_diff ~measure:true t !acc empty in
  if n > 0 then acc := union !acc t;
  n

let pp ppf t =
  Format.fprintf ppf "{";
  iter
    (fun lo hi ->
      if lo > t.(0) then Format.fprintf ppf ", ";
      if hi = lo + 1 then Format.fprintf ppf "%d" lo
      else Format.fprintf ppf "[%d,%d)" lo hi)
    t;
  Format.fprintf ppf "}"
