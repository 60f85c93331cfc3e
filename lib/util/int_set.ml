type t = { mutable slots : int array; mutable bits : int; mutable size : int }

let empty = -1

(* Load stays at most 3/4: a few probes per lookup, and a third less
   memory than capping it at 1/2. *)
let bits_for n =
  let rec go b = if 3 * (1 lsl b) >= 4 * n then b else go (b + 1) in
  go 4

let create n =
  let bits = bits_for (max n 1) in
  { slots = Array.make (1 lsl bits) empty; bits; size = 0 }

(* Fibonacci hashing: the top [bits] bits of [k * 2^62/phi] (the product
   wraps mod 2^63) spread arithmetic progressions — packed keys are
   exactly that — evenly over the table. *)
let[@inline] home bits k = (k * 0x278DDE6E5FD29F05) lsr (Sys.int_size - bits)

let check k = if k < 0 then invalid_arg "Int_set: negative key"

(* [k] is absent: claim the first empty slot of its run. *)
let insert_absent slots bits k =
  let mask = Array.length slots - 1 in
  let i = ref (home bits k) in
  while Array.unsafe_get slots !i <> empty do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set slots !i k

let grow t =
  let old = t.slots in
  let bits = t.bits + 1 in
  let slots = Array.make (1 lsl bits) empty in
  Array.iter (fun k -> if k <> empty then insert_absent slots bits k) old;
  t.slots <- slots;
  t.bits <- bits

let add t k =
  check k;
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let rec probe i =
    let s = Array.unsafe_get slots i in
    if s = k then false
    else if s = empty then begin
      Array.unsafe_set slots i k;
      t.size <- t.size + 1;
      if 4 * t.size > 3 * Array.length slots then grow t;
      true
    end
    else probe ((i + 1) land mask)
  in
  probe (home t.bits k)

let mem t k =
  check k;
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let rec probe i =
    let s = Array.unsafe_get slots i in
    s = k || (s <> empty && probe ((i + 1) land mask))
  in
  probe (home t.bits k)

let cardinal t = t.size
