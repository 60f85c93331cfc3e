let mean l =
  match l with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let linear_fit xs ys =
  let n = List.length xs in
  if n < 2 || n <> List.length ys then
    invalid_arg "Stats.linear_fit: need >= 2 matched points";
  let fn = float_of_int n in
  let sx = List.fold_left ( +. ) 0. xs and sy = List.fold_left ( +. ) 0. ys in
  let sxy = List.fold_left2 (fun acc x y -> acc +. (x *. y)) 0. xs ys in
  let sxx = List.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
  let denom = (fn *. sxx) -. (sx *. sx) in
  if denom = 0. then invalid_arg "Stats.linear_fit: degenerate xs";
  let slope = ((fn *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. fn in
  let ybar = sy /. fn in
  let ss_tot = List.fold_left (fun acc y -> acc +. ((y -. ybar) ** 2.)) 0. ys in
  let ss_res =
    List.fold_left2
      (fun acc x y ->
        let fy = (slope *. x) +. intercept in
        acc +. ((y -. fy) ** 2.))
      0. xs ys
  in
  let r2 = if ss_tot = 0. then 1. else 1. -. (ss_res /. ss_tot) in
  (slope, intercept, r2)

let power_fit xs ys =
  if List.exists (fun x -> x <= 0.) xs || List.exists (fun y -> y <= 0.) ys
  then invalid_arg "Stats.power_fit: non-positive point";
  let lx = List.map log xs and ly = List.map log ys in
  let slope, intercept, r2 = linear_fit lx ly in
  (slope, exp intercept, r2)

let spread l =
  match l with
  | [] -> invalid_arg "Stats.spread: empty"
  | _ ->
    let mn = List.fold_left min (List.hd l) l in
    let mx = List.fold_left max (List.hd l) l in
    if mn <= 0. then invalid_arg "Stats.spread: non-positive minimum";
    mx /. mn
