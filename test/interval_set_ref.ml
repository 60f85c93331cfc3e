(* Nd_util.Interval_set as it was before the packed int-array
   representation: a sorted list of (lo, hi) pairs, two heap blocks and
   48 bytes an interval.  Kept only as the differential reference for
   test_util. *)

(* Sorted disjoint half-open intervals.  All binary operations are linear
   merges over the canonical representation. *)

type t = (int * int) list
(* invariant: sorted by [lo]; disjoint; non-adjacent; every [lo < hi]. *)

let empty = []

let is_empty t = t = []

let interval lo hi =
  if lo > hi then invalid_arg "Interval_set.interval: lo > hi";
  if lo = hi then [] else [ (lo, hi) ]

(* Normalize an arbitrary interval list: sort then coalesce. *)
let normalize l =
  let l = List.filter (fun (lo, hi) -> lo < hi) l in
  let l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let rec coalesce = function
    | (a1, b1) :: (a2, b2) :: rest when a2 <= b1 ->
      coalesce ((a1, max b1 b2) :: rest)
    | x :: rest -> x :: coalesce rest
    | [] -> []
  in
  coalesce l

let of_intervals l = normalize l

(* Translation preserves ordering, disjointness and non-adjacency, so the
   invariant survives a plain map. *)
let shift t d = if d = 0 then t else List.map (fun (lo, hi) -> (lo + d, hi + d)) t

let union a b =
  let rec merge a b acc =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | (a1, b1) :: ta, (a2, b2) :: tb ->
      if a1 <= a2 then push (a1, b1) ta ((a2, b2) :: tb) acc
      else push (a2, b2) ((a1, b1) :: ta) tb acc
  and push (lo, hi) a b acc =
    (* absorb everything overlapping/adjacent to [lo, hi) *)
    match (a, b) with
    | (a1, b1) :: ta, _ when a1 <= hi -> push (lo, max hi b1) ta b acc
    | _, (a2, b2) :: tb when a2 <= hi -> push (lo, max hi b2) a tb acc
    | _ -> merge a b ((lo, hi) :: acc)
  in
  merge a b []

let inter a b =
  let rec go a b acc =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | (a1, b1) :: ta, (a2, b2) :: tb ->
      let lo = max a1 a2 and hi = min b1 b2 in
      let acc = if lo < hi then (lo, hi) :: acc else acc in
      if b1 < b2 then go ta b acc else go a tb acc
  in
  go a b []

let diff a b =
  let rec go a b acc =
    match (a, b) with
    | [], _ -> List.rev acc
    | rest, [] -> List.rev_append acc rest
    | (a1, b1) :: ta, (a2, b2) :: tb ->
      if b2 <= a1 then go a tb acc
      else if b1 <= a2 then go ta b ((a1, b1) :: acc)
      else
        (* overlap *)
        let acc = if a1 < a2 then (a1, a2) :: acc else acc in
        if b1 <= b2 then go ta b acc else go ((b2, b1) :: ta) tb acc
  in
  go a b []

let mem x t = List.exists (fun (lo, hi) -> lo <= x && x < hi) t

let cardinal t = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 t

let intervals t = t

let equal a b = a = b

(* [lo, hi) minus the set is empty *)
let covers t lo hi = lo >= hi || is_empty (diff (interval lo hi) t)

let absorb acc t =
  let fresh = diff t !acc in
  let n = cardinal fresh in
  if n > 0 then acc := union !acc t;
  n

let pp ppf t =
  Format.fprintf ppf "{";
  List.iteri
    (fun i (lo, hi) ->
      if i > 0 then Format.fprintf ppf ", ";
      if hi = lo + 1 then Format.fprintf ppf "%d" lo
      else Format.fprintf ppf "[%d,%d)" lo hi)
    t;
  Format.fprintf ppf "}"
