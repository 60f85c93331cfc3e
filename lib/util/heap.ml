type 'a entry = { key : int; seq : int; value : 'a }

(* Slots at indices >= n hold [None] so the heap never retains a popped
   entry (or the value it captures) beyond its lifetime: the discrete-event
   schedulers keep one long-lived heap per run, and a stale [data.(n)]
   would pin completed events for the whole simulation. *)
type 'a t = {
  mutable data : 'a entry option array;
  mutable n : int;
  mutable next_seq : int;
}

let create () = { data = [||]; n = 0; next_seq = 0 }

let is_empty t = t.n = 0

let length t = t.n

let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let get t i =
  match t.data.(i) with
  | Some e -> e
  | None -> assert false

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less (get t i) (get t parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.n && less (get t l) (get t !smallest) then smallest := l;
  if r < t.n && less (get t r) (get t !smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t key value =
  if t.n >= Array.length t.data then begin
    let cap = max 16 (2 * Array.length t.data) in
    let bigger = Array.make cap None in
    Array.blit t.data 0 bigger 0 t.n;
    t.data <- bigger
  end;
  t.data.(t.n) <- Some { key; seq = t.next_seq; value };
  t.next_seq <- t.next_seq + 1;
  t.n <- t.n + 1;
  sift_up t (t.n - 1)

let pop t =
  if t.n = 0 then raise Not_found;
  let top = get t 0 in
  t.n <- t.n - 1;
  if t.n > 0 then begin
    t.data.(0) <- t.data.(t.n);
    t.data.(t.n) <- None;
    sift_down t 0
  end
  else t.data.(0) <- None;
  (top.key, top.value)
