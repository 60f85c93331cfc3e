(* The compile-free references for Nd_analyze.Cost and Nd_mem.Pcc,
   straight from a bare spawn tree.

   [tree_span] gives the span and distinct fire pairs of
   [Program.compile ~registry tree] without compiling: compile's
   post-order node layout and its fire-arrow rewriting (the one Drs
   resolver, fed this pass's own node array), but events instead of
   DAG vertices.  A leaf is one event carrying its work; a Seq aliases
   its first child's begin and last child's end and chains
   end(c_i) -> begin(c_{i+1}); a Par or Fire allocates a begin event on
   pre-visit and an end event on post-visit, bracketing its children.
   Event ids are then a topological order of the whole edge set.
   Structural edges go forward by construction.  A rewritten fire
   arrow runs from inside the source subtree of some Fire node to
   inside its sink subtree, and the DFS numbers every event of the
   source before it enters the sink, so fire edges go forward too.
   Span is one forward longest-path sweep over the events.

   [of_tree] is a plain recursion over the bare tree: each subtree's
   footprint is the union of its children's, and from those come work,
   root size, peak footprint, the leaf count and Q*(m) by the serial
   recurrence.  It reads nothing from compile, so the Q* it gives is
   derived independently of [Program.size] and [Program.decompose].

   Kept only as the references test_analyze and test_conform compare
   Cost, Pcc.q_star and the DAG with. *)

module Is = Nd_util.Interval_set
module Int_set = Nd_util.Int_set
module Fire_rule = Nd.Fire_rule
module Drs = Nd.Drs
module Spawn_tree = Nd.Spawn_tree
module Strand = Nd.Strand

type node = { children : int array; begin_ev : int; end_ev : int }

type tree_span = { span : int; n_fire_edges : int }

let dummy_node = { children = [||]; begin_ev = 0; end_ev = 0 }

let tree_span ~registry tree =
  (* ---------------- flatten: nodes, events, structural edges -------- *)
  let store = ref (Array.make 64 dummy_node) in
  let n_nodes = ref 0 in
  let works = ref (Array.make 64 0) in
  let n_ev = ref 0 in
  let edges = ref [] in
  let fires = ref [] in
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
  let new_event w =
    let id = !n_ev in
    if id >= Array.length !works then begin
      let bigger = Array.make (2 * Array.length !works) 0 in
      Array.blit !works 0 bigger 0 id;
      works := bigger
    end;
    !works.(id) <- w;
    incr n_ev;
    id
  in
  let add_edge u v = edges := (u, v) :: !edges in
  let rec build t =
    match t with
    | Spawn_tree.Leaf s ->
      let ev = new_event s.Strand.work in
      add_node { children = [||]; begin_ev = ev; end_ev = ev }
    | Spawn_tree.Seq cs ->
      let ids = List.map build cs in
      let arr = Array.of_list ids in
      Array.iteri
        (fun i c ->
          if i > 0 then add_edge (get arr.(i - 1)).end_ev (get c).begin_ev)
        arr;
      let begin_ev = (get arr.(0)).begin_ev in
      let end_ev = (get arr.(Array.length arr - 1)).end_ev in
      add_node { children = arr; begin_ev; end_ev }
    | Spawn_tree.Par cs ->
      let begin_ev = new_event 0 in
      let ids = List.map build cs in
      let end_ev = new_event 0 in
      let arr = Array.of_list ids in
      Array.iter
        (fun c ->
          add_edge begin_ev (get c).begin_ev;
          add_edge (get c).end_ev end_ev)
        arr;
      add_node { children = arr; begin_ev; end_ev }
    | Spawn_tree.Fire { rule; src; snk } ->
      if not (Fire_rule.mem registry rule) then
        invalid_arg
          (Printf.sprintf "Cost_ref.tree_span: undefined fire type %S" rule);
      let begin_ev = new_event 0 in
      let a = build src in
      let b = build snk in
      let end_ev = new_event 0 in
      add_edge begin_ev (get a).begin_ev;
      add_edge begin_ev (get b).begin_ev;
      add_edge (get a).end_ev end_ev;
      add_edge (get b).end_ev end_ev;
      let id = add_node { children = [| a; b |]; begin_ev; end_ev } in
      fires := (id, rule) :: !fires;
      id
  in
  ignore (build tree);
  let nodes = Array.sub !store 0 !n_nodes in
  (* ---------------- fire-arrow rewriting (the shared Drs walk) ------ *)
  (* the walk may emit a pair more than once; a pair, packed as
     [a·N + b] for N nodes, counts and links at its first emission *)
  let pairs = Int_set.create (Array.length nodes) in
  ignore
    (Drs.rewrite ~who:"Cost_ref.tree_span" ~registry
       ~children:(Array.map (fun n -> n.children) nodes)
       ~edge:(fun a b ->
         if Int_set.add pairs ((a * Array.length nodes) + b) then
           add_edge nodes.(a).end_ev nodes.(b).begin_ev)
       (List.rev !fires));
  (* ---------------- span: forward longest-path DP over events ------- *)
  let n_ev = !n_ev in
  let works = !works in
  let succs = Array.make n_ev [] in
  List.iter (fun (u, v) -> succs.(u) <- v :: succs.(u)) !edges;
  let dist = Array.make n_ev 0 in
  let span = ref 0 in
  for v = 0 to n_ev - 1 do
    let d = dist.(v) + works.(v) in
    if d > !span then span := d;
    List.iter (fun w -> if d > dist.(w) then dist.(w) <- d) succs.(v)
  done;
  { span = !span; n_fire_edges = Int_set.cardinal pairs }

(* one node of the bare tree: its subtree's totals, and its children *)
type t = {
  work : int;
  size : int;  (* distinct words its subtree touches *)
  peak : int;  (* Seq: max over children; Par, Fire: their sum *)
  n_leaves : int;
  children : t list;
}

let of_tree tree =
  let rec go = function
    | Spawn_tree.Leaf s ->
      let fp = Strand.footprint s in
      let size = Is.cardinal fp in
      ({ work = s.Strand.work; size; peak = size; n_leaves = 1; children = [] }, fp)
    | Spawn_tree.Seq cs -> inner ~serial:true cs
    | Spawn_tree.Par cs -> inner ~serial:false cs
    | Spawn_tree.Fire { src; snk; _ } -> inner ~serial:false [ src; snk ]
  and inner ~serial cs =
    let subs = List.map go cs in
    let children = List.map fst subs in
    let sum f = List.fold_left (fun acc c -> acc + f c) 0 children in
    let fp = List.fold_left (fun acc (_, f) -> Is.union acc f) Is.empty subs in
    ( {
        work = sum (fun c -> c.work);
        size = Is.cardinal fp;
        peak =
          (if serial then List.fold_left (fun acc c -> max acc c.peak) 0 children
           else sum (fun c -> c.peak));
        n_leaves = sum (fun c -> c.n_leaves);
        children;
      },
      fp )
  in
  fst (go tree)

(* a node that fits in m, or a leaf, is a maximal task costing its size;
   any other is a glue node costing 1 plus its children's Q* *)
let rec q_star t ~m =
  if t.size <= m || t.children = [] then t.size
  else List.fold_left (fun acc c -> acc + q_star c ~m) 1 t.children
