module Is = Nd_util.Interval_set
module Json = Nd_util.Json
module Int_set = Nd_util.Int_set
module Fire_rule = Nd.Fire_rule
module Drs = Nd.Drs
module Program = Nd.Program
module Spawn_tree = Nd.Spawn_tree
module Strand = Nd.Strand
module Pmh = Nd_pmh.Pmh
module Sb = Nd_sched.Sb_sched

(* [tree_span], the compile-free span reference: Program.compile's
   post-order node layout and its fire-arrow rewriting (the one Drs
   resolver, fed this pass's own node array), but events
   instead of DAG vertices.  Span is a longest-path DP over
   a DFS {e event} numbering of the tree — one event per leaf, a
   pre-visit begin event and post-visit end event per Par/Fire, Seq
   aliasing its first child's begin and last child's end, exactly like
   the DAG's vertex aliasing.  Every structural edge goes from an
   earlier event to a later one by construction, and every rewritten
   fire arrow runs from the source subtree to the sink subtree of some
   Fire node (the rewriting never escapes them), i.e. also forward in
   DFS order — so event order is a topological order of the implied DAG
   and one forward sweep computes the exact critical path. *)

type node = { children : int array; begin_ev : int; end_ev : int }

(* Hash-consed translation-normalized subtree shapes.  Two nodes share a
   shape iff their subtrees are exact translates of each other (same
   structure, works and rule names; footprints shifted by one global
   offset).  Work, footprint cardinality, peak footprint and the Q*
   recurrence are all translation-invariant, so they are stored once per
   shape; regular divide-and-conquer trees collapse to O(depth) shapes. *)
type shape = {
  s_children : int array;  (* child shape ids; [||] for leaves *)
  s_fp : Is.t;  (* footprint shifted so its minimum address is 0 *)
  s_size : int;
  s_work : int;
  s_peak : int;
}

type shape_key =
  | KLeaf of int * Is.t * Is.t  (* work, normalized read / write sets *)
  | KNode of int * string * (int * int) list
      (* construct tag, rule name, per-child (shape id, footprint offset) *)

(* The generic [Hashtbl.hash] inspects a bounded prefix of the key, so
   wide nodes whose child lists share a long prefix (e.g. the diagonal
   [Seq] rows of a DP sweep) all collide and interning degrades to
   quadratic list comparisons.  Fold the whole key instead — child
   entries are ints, so a full-depth hash is cheap. *)
module Shape_key = struct
  type t = shape_key

  let equal (a : t) b = a = b

  let mix h a b = (((h * 31) + a) * 31) + b

  let hash = function
    | KLeaf (w, rs, ws) ->
      Is.fold (fun lo hi h -> mix h lo hi) ws
        (Is.fold (fun lo hi h -> mix h lo hi) rs ((w * 31) + 1))
    | KNode (tag, rule, ds) ->
      List.fold_left
        (fun h (a, b) -> mix h a b)
        ((tag * 31) + Hashtbl.hash rule)
        ds
end

module Shape_tbl = Hashtbl.Make (Shape_key)

type t = {
  shapes : shape array;
  root_shape : int;
  qmemo : (int * int, int) Hashtbl.t;  (* (shape id, m) -> Q* *)
  work : int;
  span : int;
  peak : int;
  root_size : int;
  n_leaves : int;
  n_nodes : int;
  n_fire_edges : int;
}

type report = {
  work : int;
  span : int;
  parallelism : float;
  peak_footprint : int;
  root_size : int;
  n_leaves : int;
  n_nodes : int;
  n_fire_edges : int;
  n_shapes : int;
}

type tree_span = { span : int; n_fire_edges : int }

let dummy_node = { children = [||]; begin_ev = 0; end_ev = 0 }

let dummy_shape =
  { s_children = [||]; s_fp = Is.empty; s_size = 0; s_work = 0; s_peak = 0 }

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
          (Printf.sprintf "Cost.tree_span: undefined fire type %S" rule);
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
    (Drs.rewrite ~who:"Cost.tree_span" ~registry
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

(* One pass over the program's post-order nodes (children first) interns
   each node's shape.  Sizes come from this pass's own footprint unions,
   not Program.size, so [q_star] stays a derivation independent of
   Program.decompose + Pcc.q_star, and the leaves are counted here; span
   and the fire pairs are read off what compile built. *)
let of_program p =
  let shape_ids : int Shape_tbl.t = Shape_tbl.create 256 in
  let shapes = ref (Array.make 64 dummy_shape) in
  let n_shapes = ref 0 in
  let add_shape s =
    let id = !n_shapes in
    if id >= Array.length !shapes then begin
      let bigger = Array.make (2 * Array.length !shapes) dummy_shape in
      Array.blit !shapes 0 bigger 0 id;
      shapes := bigger
    end;
    !shapes.(id) <- s;
    incr n_shapes;
    id
  in
  let intern key mk =
    match Shape_tbl.find_opt shape_ids key with
    | Some id -> id
    | None ->
      let id = add_shape (mk ()) in
      Shape_tbl.add shape_ids key id;
      id
  in
  let n = Program.n_nodes p in
  let node_shape = Array.make n (-1) in
  let node_min = Array.make n 0 in
  let n_leaves = ref 0 in
  (* [tag]: 0 Seq, 1 Par, 2 Fire *)
  let inner id tag rule =
    let children = Program.children p id in
    let mn =
      Array.fold_left
        (fun acc c ->
          if Is.is_empty !shapes.(node_shape.(c)).s_fp then acc
          else
            match acc with
            | None -> Some node_min.(c)
            | Some m -> Some (min m node_min.(c)))
        None children
    in
    let mn = match mn with None -> 0 | Some m -> m in
    let deltas =
      Array.to_list
        (Array.map
           (fun c ->
             let s = node_shape.(c) in
             if Is.is_empty !shapes.(s).s_fp then (s, 0)
             else (s, node_min.(c) - mn))
           children)
    in
    node_min.(id) <- mn;
    node_shape.(id) <-
      intern (KNode (tag, rule, deltas)) (fun () ->
          let fp =
            List.fold_left
              (fun acc (s, d) -> Is.union acc (Is.shift !shapes.(s).s_fp d))
              Is.empty deltas
          in
          let sum f =
            List.fold_left (fun acc (s, _) -> acc + f !shapes.(s)) 0 deltas
          in
          let peak =
            if tag = 0 then
              List.fold_left (fun acc (s, _) -> max acc !shapes.(s).s_peak) 0 deltas
            else sum (fun s -> s.s_peak)
          in
          { s_children = Array.map (fun c -> node_shape.(c)) children;
            s_fp = fp; s_size = Is.cardinal fp;
            s_work = sum (fun s -> s.s_work); s_peak = peak })
  in
  for id = 0 to n - 1 do
    match Program.kind_of p id with
    | Program.Leaf s ->
      incr n_leaves;
      let fp = Strand.footprint s in
      let mn =
        if Is.is_empty fp then 0
        else Is.fold (fun lo _ m -> Int.min lo m) fp max_int
      in
      let key =
        KLeaf
          ( s.Strand.work,
            Is.shift s.Strand.reads (-mn),
            Is.shift s.Strand.writes (-mn) )
      in
      node_min.(id) <- mn;
      node_shape.(id) <-
        intern key (fun () ->
            let nfp = Is.shift fp (-mn) in
            let size = Is.cardinal nfp in
            { s_children = [||]; s_fp = nfp; s_size = size;
              s_work = s.Strand.work; s_peak = size })
    | Program.Seq -> inner id 0 ""
    | Program.Par -> inner id 1 ""
    | Program.Fire r -> inner id 2 r
  done;
  let root_shape = node_shape.(Program.root p) in
  let root = !shapes.(root_shape) in
  {
    shapes = Array.sub !shapes 0 !n_shapes;
    root_shape;
    qmemo = Hashtbl.create 64;
    work = root.s_work;
    span = Nd_dag.Dag.span (Program.dag p);
    peak = root.s_peak;
    root_size = root.s_size;
    n_leaves = !n_leaves;
    n_nodes = n;
    n_fire_edges = Program.n_fire_edges p;
  }

(* Mirrors Program.decompose + Pcc.q_star: a node whose size fits in m
   (or a leaf) is a maximal task contributing its size; otherwise it is a
   glue node contributing 1 plus its children's totals.  Both the
   predicate and the contributions depend only on the shape. *)
let q_star t ~m =
  if m < 1 then invalid_arg "Cost.q_star: m < 1";
  let rec go s =
    match Hashtbl.find_opt t.qmemo (s, m) with
    | Some q -> q
    | None ->
      let sh = t.shapes.(s) in
      let q =
        if sh.s_size <= m || sh.s_children = [||] then sh.s_size
        else
          1 + Array.fold_left (fun acc c -> acc + go c) 0 sh.s_children
      in
      Hashtbl.add t.qmemo (s, m) q;
      q
  in
  go t.root_shape

let report (t : t) =
  {
    work = t.work;
    span = t.span;
    parallelism =
      (if t.span = 0 then 0. else float_of_int t.work /. float_of_int t.span);
    peak_footprint = t.peak;
    root_size = t.root_size;
    n_leaves = t.n_leaves;
    n_nodes = t.n_nodes;
    n_fire_edges = t.n_fire_edges;
    n_shapes = Array.length t.shapes;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>work        %d@,span        %d@,parallelism %.2f@,\
     peak fp     %d@,root size   %d@,leaves      %d@,nodes       %d@,\
     fire edges  %d@,shapes      %d@]"
    r.work r.span r.parallelism r.peak_footprint r.root_size r.n_leaves
    r.n_nodes r.n_fire_edges r.n_shapes

let report_to_json r =
  Json.Obj
    [
      ("work", Json.Int r.work);
      ("span", Json.Int r.span);
      ("parallelism", Json.Float r.parallelism);
      ("peak_footprint", Json.Int r.peak_footprint);
      ("root_size", Json.Int r.root_size);
      ("n_leaves", Json.Int r.n_leaves);
      ("n_nodes", Json.Int r.n_nodes);
      ("n_fire_edges", Json.Int r.n_fire_edges);
      ("n_shapes", Json.Int r.n_shapes);
    ]

(* ------------------------------------------------------------------ *)
(* Theorem 1 certification                                             *)
(* ------------------------------------------------------------------ *)

type level_check = { level : int; m : int; misses : int; bound : int }

type certification = {
  sigma : float;
  levels : level_check list;
  certified : bool;
}

let certify_theorem1 ?(sigma = 1. /. 3.) ?cost program machine =
  let cost =
    match cost with
    | None -> of_program program
    | Some (c : t) ->
      if
        c.n_nodes <> Program.n_nodes program
        || c.root_size <> Program.size program (Program.root program)
      then invalid_arg "Cost.certify_theorem1: the cost is of another program";
      c
  in
  let stats = Sb.run ~sigma ~accounting:Sb.Rho program machine in
  let levels =
    List.init (Pmh.n_levels machine) (fun j ->
        let level = j + 1 in
        let m =
          max 1 (int_of_float (sigma *. float_of_int (Pmh.size machine ~level)))
        in
        { level; m; misses = stats.Sb.misses.(j); bound = q_star cost ~m })
  in
  {
    sigma;
    levels;
    certified = List.for_all (fun l -> l.misses <= l.bound) levels;
  }

let certification_to_json c =
  Json.Obj
    [
      ("sigma", Json.Float c.sigma);
      ("certified", Json.Bool c.certified);
      ( "levels",
        Json.List
          (List.map
             (fun l ->
               Json.Obj
                 [
                   ("level", Json.Int l.level);
                   ("m", Json.Int l.m);
                   ("misses", Json.Int l.misses);
                   ("q_star_bound", Json.Int l.bound);
                 ])
             c.levels) );
    ]

let pp_certification ppf c =
  Format.fprintf ppf "@[<v>Theorem 1 (sigma=%.2f): %s@," c.sigma
    (if c.certified then "certified" else "VIOLATED");
  List.iter
    (fun l ->
      Format.fprintf ppf "  level %d: misses %d %s Q*(%d) = %d@," l.level
        l.misses
        (if l.misses <= l.bound then "<=" else ">")
        l.m l.bound)
    c.levels;
  Format.fprintf ppf "@]"
