let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let percentile_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if q < 0. || q > 1. then invalid_arg "Stats.percentile: q outside [0, 1]";
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = min (n - 1) (lo + 1) in
  s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let percentile a q = percentile_sorted (sorted a) q

let median a = percentile a 0.5

let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (s.(0), s.(0), s.(0))
  else begin
    (* Python's statistics.quantiles(data, n=4), method 'exclusive' *)
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)
  end

let spread a =
  let q1, q2, q3 = quartiles a in
  if q2 = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs q2
