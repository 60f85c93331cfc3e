module Is = Nd_util.Interval_set

type space = { mutable next : int; mutable data : float array }

let create_space ?(words = 64) () = { next = 0; data = Array.create_float words }

let words s = s.next

(* Capacity doubles, but the slack past [next] is left uninitialized:
   writing it would commit pages that [alloc] may never hand out (a
   space one word past a power of two keeps half its capacity unused),
   so [alloc] zeroes exactly the region it returns. *)
let reserve s n =
  let needed = s.next + n in
  if needed > Array.length s.data then begin
    let cap = ref (max 64 (Array.length s.data)) in
    while !cap < needed do
      cap := 2 * !cap
    done;
    let bigger = Array.create_float !cap in
    Array.blit s.data 0 bigger 0 s.next;
    s.data <- bigger
  end

type t = { space : space; base : int; rows : int; cols : int; stride : int }

let alloc space ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.alloc: negative dimension";
  reserve space (rows * cols);
  let base = space.next in
  Array.fill space.data base (rows * cols) 0.;
  space.next <- space.next + (rows * cols);
  { space; base; rows; cols; stride = cols }

let sub m ~r0 ~c0 ~rows ~cols =
  if r0 < 0 || c0 < 0 || r0 + rows > m.rows || c0 + cols > m.cols then
    invalid_arg "Mat.sub: out of bounds";
  {
    space = m.space;
    base = m.base + (r0 * m.stride) + c0;
    rows;
    cols;
    stride = m.stride;
  }

let quad m qr qc =
  if m.rows mod 2 <> 0 || m.cols mod 2 <> 0 then
    invalid_arg "Mat.quad: odd dimensions";
  let hr = m.rows / 2 and hc = m.cols / 2 in
  sub m ~r0:(qr * hr) ~c0:(qc * hc) ~rows:hr ~cols:hc

let top m =
  if m.rows mod 2 <> 0 then invalid_arg "Mat.top: odd rows";
  sub m ~r0:0 ~c0:0 ~rows:(m.rows / 2) ~cols:m.cols

let bot m =
  if m.rows mod 2 <> 0 then invalid_arg "Mat.bot: odd rows";
  sub m ~r0:(m.rows / 2) ~c0:0 ~rows:(m.rows / 2) ~cols:m.cols

let region m = Is.strided ~lo:m.base ~width:m.cols ~stride:m.stride ~count:m.rows

let addr m i j = m.base + (i * m.stride) + j

let data m = m.space.data

let get m i j = m.space.data.(addr m i j)

let set m i j v = m.space.data.(addr m i j) <- v

let fill m f =
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      set m i j (f i j)
    done
  done

let copy_contents ~src ~dst =
  if src.rows <> dst.rows || src.cols <> dst.cols then
    invalid_arg "Mat.copy_contents: shape mismatch";
  for i = 0 to src.rows - 1 do
    for j = 0 to src.cols - 1 do
      set dst i j (get src i j)
    done
  done

(* a NaN compares false with everything, so it must become a number
   before the max sees it *)
let deviation x y = if Float.is_nan x || Float.is_nan y then infinity else Float.abs (x -. y)

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Mat.max_abs_diff: shape mismatch";
  let worst = ref 0. in
  for i = 0 to a.rows - 1 do
    for j = 0 to a.cols - 1 do
      let d = deviation (get a i j) (get b i j) in
      if d > !worst then worst := d
    done
  done;
  !worst

let snapshot m =
  let s = create_space () in
  let c = alloc s ~rows:m.rows ~cols:m.cols in
  copy_contents ~src:m ~dst:c;
  c

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "@[<h>";
    for j = 0 to m.cols - 1 do
      Format.fprintf ppf "%8.3f " (get m i j)
    done;
    Format.fprintf ppf "@]@,"
  done;
  Format.fprintf ppf "@]"

let max_abs_diff_lower a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Mat.max_abs_diff_lower: shape mismatch";
  let worst = ref 0. in
  for i = 0 to a.rows - 1 do
    for j = 0 to min i (a.cols - 1) do
      let d = deviation (get a i j) (get b i j) in
      if d > !worst then worst := d
    done
  done;
  !worst
