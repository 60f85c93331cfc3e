module Is = Nd_util.Interval_set

type vertex_id = int

type vertex = { label : string; work : int; reads : Is.t; writes : Is.t }

type csr = { succ_off : int array; succ_tgt : int array; indeg : int array }

(* The edges arrive once, through [freeze], which builds the CSR; until
   then the DAG holds none, and from then on it is frozen and the CSR
   is its only edge storage. *)
type t = { mutable vertices : vertex array; mutable n : int; mutable csr : csr option }

let create () = { vertices = [||]; n = 0; csr = None }

let check_open t =
  match t.csr with
  | Some _ -> invalid_arg "Dag: frozen (its adjacency has been read)"
  | None -> ()

let add_vertex t ?(label = "") ~work ~reads ~writes () =
  check_open t;
  if t.n = Array.length t.vertices then begin
    let dummy = { label = ""; work = 0; reads = Is.empty; writes = Is.empty } in
    let a = Array.make (max 16 (2 * t.n)) dummy in
    Array.blit t.vertices 0 a 0 t.n;
    t.vertices <- a
  end;
  let id = t.n in
  t.vertices.(id) <- { label; work; reads; writes };
  t.n <- t.n + 1;
  id

let check_id t v =
  if v < 0 || v >= t.n then invalid_arg "Dag: vertex id out of range"

let n_vertices t = t.n

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

(* Drops duplicate edges in place.  [off]/[tgt] hold the slices newest
   link first, duplicates included; each slice keeps an endpoint's
   oldest link, its last occurrence, so the edges left, and their order,
   are those of coalescing each link as it came.  [seen.(x) = v]: [x]
   is already in [v]'s slice.  Returns the edge count. *)
let coalesce n off tgt =
  let seen = Array.make n (-1) in
  let e = ref 0 in
  for v = 0 to n - 1 do
    let lo = off.(v) and hi = off.(v + 1) in
    off.(v) <- !e;
    for k = hi - 1 downto lo do
      if seen.(tgt.(k)) = v then tgt.(k) <- -1 else seen.(tgt.(k)) <- v
    done;
    for k = lo to hi - 1 do
      if tgt.(k) >= 0 then begin
        tgt.(!e) <- tgt.(k);
        incr e
      end
    done
  done;
  off.(n) <- !e;
  !e

(* Two passes over [edges].  The first counts each source's links and
   sums the counts, so [succ_off.(u)] ends [u]'s slice; the second
   moves that cursor down one slot a link, so each slice lists its
   links newest first, the order test_core's recorded compile digests
   pin, and the cursors stop on the slices' starts.  The in-degrees
   are counted from the coalesced slices, so a duplicate link counts
   once. *)
let freeze t edges =
  check_open t;
  let n = t.n in
  let check u v =
    check_id t u;
    check_id t v;
    if u = v then invalid_arg "Dag.freeze: self loop"
  in
  let succ_off = Array.make (n + 1) 0 in
  edges (fun u v ->
      check u v;
      succ_off.(u) <- succ_off.(u) + 1;
      succ_off.(n) <- succ_off.(n) + 1);
  let e = succ_off.(n) in
  for v = 1 to n - 1 do
    succ_off.(v) <- succ_off.(v) + succ_off.(v - 1)
  done;
  let succ_tgt = Array.make e 0 in
  let changed () = invalid_arg "Dag.freeze: the second pass gave another edge count" in
  let left = ref e in
  edges (fun u v ->
      check u v;
      if !left = 0 then changed ();
      decr left;
      let k = succ_off.(u) - 1 in
      succ_tgt.(k) <- v;
      succ_off.(u) <- k);
  if !left > 0 then changed ();
  let distinct = coalesce n succ_off succ_tgt in
  let succ_tgt = if distinct = e then succ_tgt else Array.sub succ_tgt 0 distinct in
  let indeg = Array.make n 0 in
  Array.iter (fun w -> indeg.(w) <- indeg.(w) + 1) succ_tgt;
  t.csr <- Some { succ_off; succ_tgt; indeg }

let csr t =
  match t.csr with
  | Some c -> c
  | None ->
    freeze t (fun _ -> ());
    Option.get t.csr

let n_edges t = (csr t).succ_off.(t.n)

exception Cycle of vertex_id

(* A successor of a vertex a stalled topological pass left blocked is
   blocked too, and every blocked vertex has a blocked predecessor.  So
   noting one blocked predecessor for each blocked vertex, and walking
   back through them, must repeat a vertex, and the first repeat is on
   a cycle.  Only the stall path pays for the V-word array. *)
let cycle_witness t remaining =
  let c = csr t in
  let back = Array.make t.n (-1) in
  let start = ref (-1) in
  for u = 0 to t.n - 1 do
    if remaining.(u) > 0 then begin
      start := u;
      for k = c.succ_off.(u) to c.succ_off.(u + 1) - 1 do
        back.(c.succ_tgt.(k)) <- u
      done
    end
  done;
  let seen = Array.make t.n false in
  let rec walk v =
    if seen.(v) then v
    else begin
      seen.(v) <- true;
      walk back.(v)
    end
  in
  walk !start

(* Kahn's algorithm; [order] doubles as the FIFO queue *)
let topo_order t =
  let c = csr t in
  let indeg = Array.copy c.indeg in
  let order = Array.make t.n 0 in
  let tail = ref 0 in
  for v = 0 to t.n - 1 do
    if indeg.(v) = 0 then begin
      order.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let v = order.(!head) in
    incr head;
    for k = c.succ_off.(v) to c.succ_off.(v + 1) - 1 do
      let w = c.succ_tgt.(k) in
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then begin
        order.(!tail) <- w;
        incr tail
      end
    done
  done;
  if !tail < t.n then raise (Cycle (cycle_witness t indeg));
  order

let longest_path_weighted t weight =
  let c = csr t in
  let order = topo_order t in
  let dist = Array.make t.n 0 in
  let best = ref 0 in
  Array.iter
    (fun v ->
      let d = dist.(v) + weight v in
      if d > !best then best := d;
      for k = c.succ_off.(v) to c.succ_off.(v + 1) - 1 do
        let w = c.succ_tgt.(k) in
        if d > dist.(w) then dist.(w) <- d
      done)
    order;
  !best

let span t = longest_path_weighted t (fun v -> t.vertices.(v).work)

let critical_path t =
  let c = csr t in
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
      for k = c.succ_off.(v) to c.succ_off.(v + 1) - 1 do
        let w = c.succ_tgt.(k) in
        if d > dist.(w) then begin
          dist.(w) <- d;
          from.(w) <- v
        end
      done)
    order;
  if t.n = 0 then []
  else begin
    let rec walk v acc = if v = -1 then acc else walk from.(v) (v :: acc) in
    walk !best_v []
  end

let sources t =
  let c = csr t in
  let acc = ref [] in
  for v = t.n - 1 downto 0 do
    if c.indeg.(v) = 0 then acc := v :: !acc
  done;
  !acc

let sinks t =
  let c = csr t in
  let acc = ref [] in
  for v = t.n - 1 downto 0 do
    if c.succ_off.(v + 1) = c.succ_off.(v) then acc := v :: !acc
  done;
  !acc

type reachability = { nbits : int; words : int; bits : Bytes.t }
(* row v = descendants of v (including v), packed little-endian bit per id *)

let reachability ?(max_vertices = 60_000) t =
  if t.n > max_vertices then invalid_arg "Dag.reachability: too many vertices";
  let c = csr t in
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
    for k = c.succ_off.(v) to c.succ_off.(v + 1) - 1 do
      or_row v c.succ_tgt.(k)
    done
  done;
  { nbits = t.n; words; bits }

let reachable r u v =
  if u < 0 || u >= r.nbits || v < 0 || v >= r.nbits then
    invalid_arg "Dag.reachable: id out of range";
  let idx = (u * r.words) + (v / 8) in
  Char.code (Bytes.get r.bits idx) land (1 lsl (v mod 8)) <> 0
