module Is = Nd_util.Interval_set
module Dag = Nd_dag.Dag

type node_id = int

type kind = Leaf of Strand.t | Seq | Par | Fire of string

type node = {
  kind : kind;
  children : int array;
  mutable parent : int;
  first_node : int;  (* lowest node id in the subtree (post-order layout) *)
  leaf_lo : int;
  leaf_hi : int;
  begin_v : int;
  end_v : int;
}

type decomposition = {
  m : int;
  tasks : node_id array;
  task_of_node : int array;
  task_of_vertex : int array;
  n_glue : int;
  n_parts : int;
}

type t = {
  tree : Spawn_tree.t;
  registry : Fire_rule.registry;
  dag : Dag.t;
  nodes : node array;
  root : node_id;
  leaf_nodes : int array;
  leaf_vertices : int array;
  sizes : int array;  (* s(n), by node *)
  works : int array;  (* the subtree's strand work, by node *)
  vertex_owner : int array;
  fire_pairs : int array;  (* [a·n_nodes + b], sorted *)
  rule_uses : Drs.use list;
  decomp_cache : (int, decomposition) Hashtbl.t;
  decomp_lock : Mutex.t;
}

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let dummy_node =
  {
    kind = Seq;
    children = [||];
    parent = -1;
    first_node = 0;
    leaf_lo = 0;
    leaf_hi = 0;
    begin_v = 0;
    end_v = 0;
  }

(* A growable int buffer in fixed-size chunks: growing adds a chunk
   and copies nothing. *)
module Chunks = struct
  type t = { bits : int; mutable blocks : int array array; mutable len : int }

  (* chunks of the smallest power of two at least [n] words, clamped to
     [2^8, 2^14]: a small program's chunks stay in the minor heap *)
  let create n =
    let bits = ref 8 in
    while !bits < 14 && 1 lsl !bits < n do
      incr bits
    done;
    { bits = !bits; blocks = [||]; len = 0 }

  let push c x =
    let i = c.len land ((1 lsl c.bits) - 1) and b = c.len lsr c.bits in
    if i = 0 then begin
      if b = Array.length c.blocks then begin
        let spine = Array.make (max 4 (2 * b)) [||] in
        Array.blit c.blocks 0 spine 0 b;
        c.blocks <- spine
      end;
      c.blocks.(b) <- Array.make (1 lsl c.bits) 0
    end;
    c.blocks.(b).(i) <- x;
    c.len <- c.len + 1

  let set c i x = c.blocks.(i lsr c.bits).(i land ((1 lsl c.bits) - 1)) <- x

  let iter f c =
    for i = 0 to c.len - 1 do
      f c.blocks.(i lsr c.bits).(i land ((1 lsl c.bits) - 1))
    done
end

(* One stable counting-sort pass over the values [each f] passes to
   [f], in order (it is called twice): value [k] goes to [put j k], [j]
   its position in the order of [key k], whose values lie in
   [0, Array.length start - 1).  [start] is the pass's scratch. *)
let counting_sort ~start key each put =
  Array.fill start 0 (Array.length start) 0;
  each (fun k ->
      let d = key k + 1 in
      start.(d) <- start.(d) + 1);
  for d = 1 to Array.length start - 1 do
    start.(d) <- start.(d) + start.(d - 1)
  done;
  each (fun k ->
      let d = key k in
      put start.(d) k;
      start.(d) <- start.(d) + 1)

let compile ~registry tree =
  let dag = Dag.create () in
  let store = ref (Array.make 64 dummy_node) in
  let n_nodes = ref 0 in
  let n_leaves = ref 0 in
  let add_node node =
    let id = !n_nodes in
    if id >= Array.length !store then begin
      let bigger = Array.make (2 * Array.length !store) dummy_node in
      Array.blit !store 0 bigger 0 id;
      store := bigger
    end;
    !store.(id) <- node;
    incr n_nodes;
    id
  in
  let get i = !store.(i) in
  let sync label =
    Dag.add_vertex dag ~label ~work:0 ~reads:Is.empty ~writes:Is.empty ()
  in
  (* Build the spawn-tree structure and the DAG's vertices.  Children
     are allocated before their parent: post-order ids. *)
  let rec build t =
    let first = !n_nodes in
    match t with
    | Spawn_tree.Leaf s ->
      let v =
        Dag.add_vertex dag ~label:s.Strand.label ~work:s.Strand.work
          ~reads:s.Strand.reads ~writes:s.Strand.writes ()
      in
      let leaf_idx = !n_leaves in
      incr n_leaves;
      add_node
        {
          kind = Leaf s;
          children = [||];
          parent = -1;
          first_node = first;
          leaf_lo = leaf_idx;
          leaf_hi = leaf_idx + 1;
          begin_v = v;
          end_v = v;
        }
    | Spawn_tree.Seq cs ->
      let lo = !n_leaves in
      let ids = List.map build cs in
      let hi = !n_leaves in
      let arr = Array.of_list ids in
      let begin_v = (get arr.(0)).begin_v in
      let end_v = (get arr.(Array.length arr - 1)).end_v in
      add_node
        {
          kind = Seq;
          children = arr;
          parent = -1;
          first_node = first;
          leaf_lo = lo;
          leaf_hi = hi;
          begin_v;
          end_v;
        }
    | Spawn_tree.Par cs ->
      let lo = !n_leaves in
      let ids = List.map build cs in
      let hi = !n_leaves in
      let arr = Array.of_list ids in
      let begin_v = sync "par.begin" and end_v = sync "par.end" in
      add_node
        {
          kind = Par;
          children = arr;
          parent = -1;
          first_node = first;
          leaf_lo = lo;
          leaf_hi = hi;
          begin_v;
          end_v;
        }
    | Spawn_tree.Fire { rule; src; snk } ->
      if not (Fire_rule.mem registry rule) then
        invalid_arg
          (Printf.sprintf "Program.compile: undefined fire type %S" rule);
      let lo = !n_leaves in
      let a = build src in
      let b = build snk in
      let hi = !n_leaves in
      let begin_v = sync ("fire." ^ rule ^ ".begin")
      and end_v = sync ("fire." ^ rule ^ ".end") in
      add_node
        {
          kind = Fire rule;
          children = [| a; b |];
          parent = -1;
          first_node = first;
          leaf_lo = lo;
          leaf_hi = hi;
          begin_v;
          end_v;
        }
  in
  let root = build tree in
  let nodes = Array.sub !store 0 !n_nodes in
  (* parents *)
  Array.iteri
    (fun id n -> Array.iter (fun c -> nodes.(c).parent <- id) n.children)
    nodes;
  let n = Array.length nodes in
  (* sizes and works: ids are post-order, children first.  A node's
     footprint set lives in [fps] only until its parent has absorbed
     it; the program keeps the counts, not the sets. *)
  let sizes = Array.make n 0 and works = Array.make n 0 in
  let fps = Array.make n Is.empty in
  Array.iteri
    (fun id nd ->
      let fp =
        match nd.kind with
        | Leaf s ->
          works.(id) <- s.Strand.work;
          Strand.footprint s
        | Seq | Par | Fire _ ->
          Array.fold_left
            (fun acc c ->
              works.(id) <- works.(id) + works.(c);
              let fc = fps.(c) in
              fps.(c) <- Is.empty;
              Is.union acc fc)
            Is.empty nd.children
      in
      sizes.(id) <- Is.cardinal fp;
      fps.(id) <- fp)
    nodes;
  (* ---------------- fire-arrow rewriting ---------------- *)
  let fires = ref [] in
  for id = n - 1 downto 0 do
    match nodes.(id).kind with
    | Fire r -> fires := (id, r) :: !fires
    | Leaf _ | Seq | Par -> ()
  done;
  (* every emission [a·n + b], in emission order; a pair may repeat *)
  let emitted = Chunks.create n in
  let rule_uses =
    if !fires = [] then []
    else
      Drs.rewrite ~who:"Program.compile" ~registry
        ~children:(Array.map (fun nd -> nd.children) nodes)
        ~edge:(fun a b -> Chunks.push emitted ((a * n) + b))
        !fires
  in
  (* ---------------- DAG edges ---------------- *)
  (* Streamed into the CSR after the walk, so its table is garbage
     first.  The link order fixes the order of every CSR slice: each
     node's structural edges, node by node in id order (children before
     parents), then every emission in order.  The walk may emit a pair
     more than once, and two pairs can name one DAG edge (a Seq shares
     its first child's begin vertex and its last child's end vertex);
     the DAG keeps each edge once, at its first link, so linking every
     emission builds the CSR that linking only first emissions would.
     A compiled program's DAG is frozen. *)
  Dag.freeze dag (fun link ->
      Array.iter
        (fun nd ->
          let child i = nodes.(nd.children.(i)) in
          match nd.kind with
          | Leaf _ -> ()
          | Seq ->
            (* chain: end(c_i) -> begin(c_{i+1}) *)
            for i = 1 to Array.length nd.children - 1 do
              link (child (i - 1)).end_v (child i).begin_v
            done
          | Par ->
            Array.iter
              (fun c ->
                link nd.begin_v nodes.(c).begin_v;
                link nodes.(c).end_v nd.end_v)
              nd.children
          | Fire _ ->
            link nd.begin_v (child 0).begin_v;
            link nd.begin_v (child 1).begin_v;
            link (child 0).end_v nd.end_v;
            link (child 1).end_v nd.end_v)
        nodes;
      Chunks.iter (fun k -> link nodes.(k / n).end_v nodes.(k mod n).begin_v) emitted);
  (* LSD radix sort of the emissions: by [b] out of the chunks into the
     final array, then stably by [a] back into the chunks, whose
     repeats are then adjacent and dropped as they are copied out *)
  let fire_pairs =
    let len = emitted.Chunks.len in
    if len = 0 then [||]
    else begin
      let pairs = Array.make len 0 and start = Array.make (n + 1) 0 in
      counting_sort ~start (fun k -> k mod n) (fun f -> Chunks.iter f emitted) (Array.set pairs);
      counting_sort ~start (fun k -> k / n) (fun f -> Array.iter f pairs) (Chunks.set emitted);
      let d = ref 0 in
      Chunks.iter
        (fun k ->
          if !d = 0 || k <> pairs.(!d - 1) then begin
            pairs.(!d) <- k;
            incr d
          end)
        emitted;
      if !d = len then pairs else Array.sub pairs 0 !d
    end
  in
  (* post-order visits the leaves left to right *)
  let leaf_nodes = Array.make !n_leaves 0 and leaf_vertices = Array.make !n_leaves 0 in
  let vertex_owner = Array.make (Dag.n_vertices dag) (-1) in
  Array.iteri
    (fun id nd ->
      match nd.kind with
      | Leaf _ ->
        leaf_nodes.(nd.leaf_lo) <- id;
        leaf_vertices.(nd.leaf_lo) <- nd.begin_v;
        vertex_owner.(nd.begin_v) <- id
      | Par | Fire _ ->
        vertex_owner.(nd.begin_v) <- id;
        vertex_owner.(nd.end_v) <- id
      | Seq -> ())
    nodes;
  {
    tree;
    registry;
    dag;
    nodes;
    root;
    leaf_nodes;
    leaf_vertices;
    sizes;
    works;
    vertex_owner;
    fire_pairs;
    rule_uses;
    decomp_cache = Hashtbl.create 16;
    decomp_lock = Mutex.create ();
  }

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let dag t = t.dag

let tree t = t.tree

let registry t = t.registry

let n_nodes t = Array.length t.nodes

let root t = t.root

let check t n =
  if n < 0 || n >= Array.length t.nodes then
    invalid_arg "Program: node id out of range"

let parent t n =
  check t n;
  t.nodes.(n).parent

let children t n =
  check t n;
  t.nodes.(n).children

let kind_of t n =
  check t n;
  t.nodes.(n).kind

let leaf_range t n =
  check t n;
  (t.nodes.(n).leaf_lo, t.nodes.(n).leaf_hi)

let n_leaves t = Array.length t.leaf_nodes

let leaf_node t i = t.leaf_nodes.(i)

let leaf_vertex t i = t.leaf_vertices.(i)

let vertex_owner t v = t.vertex_owner.(v)

let n_fire_edges t = Array.length t.fire_pairs

let rule_uses t = t.rule_uses

let fire_src t i = t.fire_pairs.(i) / Array.length t.nodes

let fire_snk t i = t.fire_pairs.(i) mod Array.length t.nodes

type heap_words = { adjacency : int; fire_pairs : int; program : int }

let heap_words t =
  let words x = Obj.reachable_words (Obj.repr x) in
  {
    adjacency = words (Dag.csr t.dag);
    fire_pairs = words t.fire_pairs;
    program = words t;
  }

let begin_vertex t n =
  check t n;
  t.nodes.(n).begin_v

let size t n =
  check t n;
  t.sizes.(n)

let work_of_node t n =
  check t n;
  t.works.(n)

(* ------------------------------------------------------------------ *)
(* M-maximal decomposition                                             *)
(* ------------------------------------------------------------------ *)

(* The cut of the spawn tree at [m]: a node whose [measure] fits,
   or a leaf, is a task; every other node is glue and its children are
   cut in turn.  A task's vertices take its index; each glue vertex
   takes its own part after the tasks', in vertex order. *)
let cut t ~m measure =
  let tasks = ref [] and n_tasks = ref 0 in
  let task_of_node = Array.make (Array.length t.nodes) (-1) in
  let n_glue = ref 0 in
  let rec go n =
    let node = t.nodes.(n) in
    if measure.(n) <= m || node.children = [||] then begin
      let idx = !n_tasks in
      incr n_tasks;
      tasks := n :: !tasks;
      (* post-order: the subtree is the contiguous id range [first, n] *)
      for i = node.first_node to n do
        task_of_node.(i) <- idx
      done
    end
    else begin
      incr n_glue;
      Array.iter go node.children
    end
  in
  go t.root;
  let n_parts = ref !n_tasks in
  let task_of_vertex = Array.make (Array.length t.vertex_owner) 0 in
  Array.iteri
    (fun v owner ->
      let ti = task_of_node.(owner) in
      if ti >= 0 then task_of_vertex.(v) <- ti
      else begin
        task_of_vertex.(v) <- !n_parts;
        incr n_parts
      end)
    t.vertex_owner;
  {
    m;
    tasks = Array.of_list (List.rev !tasks);
    task_of_node;
    task_of_vertex;
    n_glue = !n_glue;
    n_parts = !n_parts;
  }

(* Memoized per program: sigma-sweeps and the Q*/Q-hat metrics query the
   same handful of [m] values over and over, and a decomposition is
   immutable once built.  The memo table is mutex-guarded (the analysis
   server shares one compiled program across pool domains); computing
   inside the lock doubles as single-flight, so a given [m] is
   decomposed exactly once per program no matter how many domains race
   on it.  The critical section is O(nodes) — negligible next to the
   simulations that consume the result. *)
let decompose t ~m =
  if m < 1 then invalid_arg "Program.decompose: m < 1";
  Mutex.protect t.decomp_lock (fun () ->
      match Hashtbl.find_opt t.decomp_cache m with
      | Some d -> d
      | None ->
        let d = cut t ~m t.sizes in
        Hashtbl.add t.decomp_cache m d;
        d)

let coarsen t ~grain = cut t ~m:grain t.works

(* Compile numbers vertices in post-order, so a task's vertices are one
   id range and the links a target gets from one task come from one run
   of consecutive sources: a stamp holding each target's last source
   part drops every repeat, and [Dag.freeze] allocates only distinct
   pairs. *)
let contract t d =
  let part = d.task_of_vertex and g = Dag.create () in
  for _ = 1 to d.n_parts do
    ignore (Dag.add_vertex g ~work:0 ~reads:Is.empty ~writes:Is.empty ())
  done;
  let c = Dag.csr t.dag and last = Array.make d.n_parts (-1) in
  Dag.freeze g (fun link ->
      Array.fill last 0 d.n_parts (-1);
      Array.iteri
        (fun u pu ->
          for k = c.Dag.succ_off.(u) to c.Dag.succ_off.(u + 1) - 1 do
            let pv = part.(c.Dag.succ_tgt.(k)) in
            if pu <> pv && last.(pv) <> pu then begin
              last.(pv) <- pu;
              link pu pv
            end
          done)
        part);
  g

let is_ancestor t a n =
  check t a;
  check t n;
  t.nodes.(a).first_node <= n && n <= a
