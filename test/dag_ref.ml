(* Nd_dag.Dag as it was before the CSR-only adjacency: a record per
   vertex holding its successors and predecessors as int lists, newest
   link first, and a CSR built from those lists on demand and dropped
   on every mutation.  Kept only as the differential reference for
   test_dag. *)

module Is = Nd_util.Interval_set

type vertex_id = int

type vertex = {
  label : string;
  work : int;
  reads : Is.t;
  writes : Is.t;
  mutable succs : vertex_id list;
  mutable preds : vertex_id list;
}

type csr = {
  succ_off : int array;
  succ_tgt : int array;
  indeg : int array;
}

type t = {
  mutable vertices : vertex array;
  mutable n : int;
  mutable edges : int;
  mutable csr_cache : csr option;
}

let create () = { vertices = [||]; n = 0; edges = 0; csr_cache = None }

let grow t =
  let cap = Array.length t.vertices in
  if t.n >= cap then begin
    let ncap = max 16 (2 * cap) in
    let dummy =
      { label = ""; work = 0; reads = Is.empty; writes = Is.empty; succs = []; preds = [] }
    in
    let a = Array.make ncap dummy in
    Array.blit t.vertices 0 a 0 t.n;
    t.vertices <- a
  end

let add_vertex t ?(label = "") ~work ~reads ~writes () =
  grow t;
  let id = t.n in
  t.vertices.(id) <- { label; work; reads; writes; succs = []; preds = [] };
  t.n <- t.n + 1;
  t.csr_cache <- None;
  id

let check_id t v =
  if v < 0 || v >= t.n then invalid_arg "Dag: vertex id out of range"

let check_edge t u v =
  check_id t u;
  check_id t v;
  if u = v then invalid_arg "Dag.add_edge: self loop"

let link t u v =
  let vu = t.vertices.(u) and vv = t.vertices.(v) in
  vu.succs <- v :: vu.succs;
  vv.preds <- u :: vv.preds;
  t.edges <- t.edges + 1;
  t.csr_cache <- None

let add_edge t u v =
  check_edge t u v;
  if not (List.mem v t.vertices.(u).succs) then link t u v

let add_new_edge t u v =
  check_edge t u v;
  link t u v

let n_vertices t = t.n

let n_edges t = t.edges

let succs t v =
  check_id t v;
  t.vertices.(v).succs

let preds t v =
  check_id t v;
  t.vertices.(v).preds

let label t v =
  check_id t v;
  t.vertices.(v).label

let work_of t v =
  check_id t v;
  t.vertices.(v).work

let reads_of t v =
  check_id t v;
  t.vertices.(v).reads

let writes_of t v =
  check_id t v;
  t.vertices.(v).writes

let footprint_of t v = Is.union (reads_of t v) (writes_of t v)

let work t =
  let acc = ref 0 in
  for i = 0 to t.n - 1 do
    acc := !acc + t.vertices.(i).work
  done;
  !acc

(* Flat CSR adjacency: one offsets array (length n+1) plus one packed
   successor-id array, so the runtime's wake-up loop is an int-array scan
   with no list-cell pointer chasing and no per-visit allocation.  Built
   lazily and cached; any mutation invalidates the cache. *)
let build_csr t =
  let n = t.n in
  let succ_off = Array.make (n + 1) 0 in
  let indeg = Array.make n 0 in
  for v = 0 to n - 1 do
    succ_off.(v + 1) <- List.length t.vertices.(v).succs;
    indeg.(v) <- List.length t.vertices.(v).preds
  done;
  for v = 1 to n do
    succ_off.(v) <- succ_off.(v) + succ_off.(v - 1)
  done;
  let succ_tgt = Array.make succ_off.(n) 0 in
  let fill = Array.make n 0 in
  for v = 0 to n - 1 do
    List.iter
      (fun s ->
        succ_tgt.(succ_off.(v) + fill.(v)) <- s;
        fill.(v) <- fill.(v) + 1)
      t.vertices.(v).succs
  done;
  { succ_off; succ_tgt; indeg }

let csr t =
  match t.csr_cache with
  | Some c -> c
  | None ->
    let c = build_csr t in
    t.csr_cache <- Some c;
    c

exception Cycle of vertex_id

let topo_order t =
  let indeg = Array.make t.n 0 in
  for v = 0 to t.n - 1 do
    indeg.(v) <- List.length t.vertices.(v).preds
  done;
  let order = Array.make t.n 0 in
  let q = Queue.create () in
  for v = 0 to t.n - 1 do
    if indeg.(v) = 0 then Queue.add v q
  done;
  let k = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    order.(!k) <- v;
    incr k;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w q)
      t.vertices.(v).succs
  done;
  if !k < t.n then begin
    (* find a witness still carrying positive in-degree *)
    let w = ref 0 in
    for v = 0 to t.n - 1 do
      if indeg.(v) > 0 then w := v
    done;
    raise (Cycle !w)
  end;
  order

let longest_path_weighted t weight =
  let order = topo_order t in
  let dist = Array.make t.n 0 in
  let best = ref 0 in
  Array.iter
    (fun v ->
      let d = dist.(v) + weight v in
      if d > !best then best := d;
      List.iter (fun w -> if d > dist.(w) then dist.(w) <- d) t.vertices.(v).succs)
    order;
  !best

let span t = longest_path_weighted t (fun v -> t.vertices.(v).work)

let critical_path t =
  let order = topo_order t in
  let dist = Array.make t.n 0 in
  let from = Array.make t.n (-1) in
  let best = ref 0 and best_v = ref (if t.n > 0 then order.(0) else -1) in
  Array.iter
    (fun v ->
      let d = dist.(v) + t.vertices.(v).work in
      if d > !best || !best_v = -1 then begin
        best := d;
        best_v := v
      end;
      List.iter
        (fun w ->
          if d > dist.(w) then begin
            dist.(w) <- d;
            from.(w) <- v
          end)
        t.vertices.(v).succs)
    order;
  if t.n = 0 then []
  else begin
    let rec walk v acc = if v = -1 then acc else walk from.(v) (v :: acc) in
    walk !best_v []
  end

let sources t =
  let acc = ref [] in
  for v = t.n - 1 downto 0 do
    if t.vertices.(v).preds = [] then acc := v :: !acc
  done;
  !acc

let sinks t =
  let acc = ref [] in
  for v = t.n - 1 downto 0 do
    if t.vertices.(v).succs = [] then acc := v :: !acc
  done;
  !acc

type reachability = { nbits : int; words : int; bits : Bytes.t }
(* row v = descendants of v (including v), packed little-endian bit per id *)

let reachability ?(max_vertices = 60_000) t =
  if t.n > max_vertices then invalid_arg "Dag.reachability: too many vertices";
  let words = (t.n + 7) / 8 in
  let bits = Bytes.make (t.n * words) '\000' in
  let set row v =
    let idx = (row * words) + (v / 8) in
    Bytes.unsafe_set bits idx
      (Char.chr (Char.code (Bytes.unsafe_get bits idx) lor (1 lsl (v mod 8))))
  in
  let or_row dst src =
    let d0 = dst * words and s0 = src * words in
    for i = 0 to words - 1 do
      let b = Char.code (Bytes.unsafe_get bits (d0 + i)) lor Char.code (Bytes.unsafe_get bits (s0 + i)) in
      Bytes.unsafe_set bits (d0 + i) (Char.unsafe_chr b)
    done
  in
  let order = topo_order t in
  (* reverse topological: successors first *)
  for i = t.n - 1 downto 0 do
    let v = order.(i) in
    set v v;
    List.iter (fun w -> or_row v w) t.vertices.(v).succs
  done;
  { nbits = t.n; words; bits }

let reachable r u v =
  if u < 0 || u >= r.nbits || v < 0 || v >= r.nbits then
    invalid_arg "Dag.reachable: id out of range";
  let idx = (u * r.words) + (v / 8) in
  Char.code (Bytes.get r.bits idx) land (1 lsl (v mod 8)) <> 0
