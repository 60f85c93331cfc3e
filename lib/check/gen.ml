module G = QCheck2.Gen
module Is = Nd_util.Interval_set

type leaf = {
  work : int;
  reads : (int * int) list;
  writes : (int * int) list;
}

type tree =
  | Leaf of leaf
  | Seq of tree list
  | Par of tree list
  | Fire of { rule : string; src : tree; snk : tree }

type spec = {
  tree : tree;
  rules : (string * Nd.Fire_rule.rule list) list;
  mem : int;
}

type params = {
  max_depth : int;
  max_fanout : int;
  mem : int;
  n_rule_types : int;
  max_rules : int;
}

let default_params =
  { max_depth = 4; max_fanout = 3; mem = 48; n_rule_types = 3; max_rules = 3 }

let rec tree_leaves = function
  | Leaf _ -> 1
  | Seq cs | Par cs -> List.fold_left (fun a c -> a + tree_leaves c) 0 cs
  | Fire { src; snk; _ } -> tree_leaves src + tree_leaves snk

let n_leaves spec = tree_leaves spec.tree

(* ------------------------------ printing ---------------------------- *)

let pp_intervals ppf l =
  Format.fprintf ppf "[%s]"
    (String.concat ","
       (List.map (fun (lo, hi) -> Printf.sprintf "%d..%d" lo (hi - 1)) l))

let rec pp_tree ppf = function
  | Leaf l ->
    Format.fprintf ppf "s(w=%d" l.work;
    if l.reads <> [] then Format.fprintf ppf " r=%a" pp_intervals l.reads;
    if l.writes <> [] then Format.fprintf ppf " w=%a" pp_intervals l.writes;
    Format.fprintf ppf ")"
  | Seq cs ->
    Format.fprintf ppf "@[<hov 2>seq(%a)@]"
      (Format.pp_print_list ~pp_sep:(fun p () -> Format.fprintf p ";@ ") pp_tree)
      cs
  | Par cs ->
    Format.fprintf ppf "@[<hov 2>par(%a)@]"
      (Format.pp_print_list ~pp_sep:(fun p () -> Format.fprintf p " ||@ ") pp_tree)
      cs
  | Fire { rule; src; snk } ->
    Format.fprintf ppf "@[<hov 2>fire[%s](%a ~>@ %a)@]" rule pp_tree src
      pp_tree snk

let pp ppf spec =
  Format.fprintf ppf "@[<v>%a@," pp_tree spec.tree;
  List.iter
    (fun (name, rules) ->
      if rules = [] then Format.fprintf ppf "%s: ||@," name
      else
        Format.fprintf ppf "%s: @[<hov>%a@]@," name
          (Format.pp_print_list
             ~pp_sep:(fun p () -> Format.fprintf p ",@ ")
             Nd.Fire_rule.pp_rule)
          rules)
    spec.rules;
  Format.fprintf ppf "mem=%d@]" spec.mem

let to_string spec = Format.asprintf "%a" pp spec

(* ----------------------------- generation --------------------------- *)

let rname i = Printf.sprintf "R%d" i

let gen ?(params = default_params) () =
  let rule_name = G.map rname (G.int_range 1 params.n_rule_types) in
  let interval =
    G.map2
      (fun lo len -> (lo, min params.mem (lo + len)))
      (G.int_range 0 (params.mem - 1))
      (G.int_range 1 4)
  in
  let leaf =
    G.map3
      (fun work reads writes -> Leaf { work; reads; writes })
      (G.int_range 0 6)
      (G.list_size (G.int_range 0 2) interval)
      (G.list_size (G.int_range 0 2) interval)
  in
  let tree =
    G.fix
      (fun self depth ->
        if depth <= 0 then leaf
        else
          let child = self (depth - 1) in
          G.frequency
            [
              (2, leaf);
              ( 3,
                G.map
                  (fun cs -> Seq cs)
                  (G.list_size (G.int_range 2 params.max_fanout) child) );
              ( 3,
                G.map
                  (fun cs -> Par cs)
                  (G.list_size (G.int_range 2 params.max_fanout) child) );
              ( 3,
                G.map3
                  (fun rule src snk -> Fire { rule; src; snk })
                  rule_name child child );
            ])
      params.max_depth
  in
  let pedigree = G.list_size (G.int_range 0 2) (G.int_range 1 3) in
  let target =
    G.frequency
      [
        (2, G.pure Nd.Fire_rule.Full);
        (1, G.map (fun n -> Nd.Fire_rule.Named n) rule_name);
      ]
  in
  let rule =
    G.map3 (fun src via dst -> Nd.Fire_rule.rule src via dst) pedigree target
      pedigree
  in
  let rules =
    G.flatten_l
      (List.init params.n_rule_types (fun i ->
           G.map
             (fun rs -> (rname (i + 1), rs))
             (G.list_size (G.int_range 0 params.max_rules) rule)))
  in
  G.map2 (fun tree rules -> { tree; rules; mem = params.mem }) tree rules

let generate ~seed ?params () =
  G.generate1 ~rand:(Random.State.make [| seed |]) (gen ?params ())

(* ------------------------------ shrinking --------------------------- *)

let trivial_leaf = Leaf { work = 0; reads = []; writes = [] }

let drop_nth xs =
  List.init (List.length xs) (fun i -> List.filteri (fun j _ -> j <> i) xs)

(* all single-step smaller variants of a tree, outermost first *)
let rec tree_candidates t : tree Stdlib.Seq.t =
  let at_children mk cs =
    (* rewrite inside exactly one child *)
    Stdlib.Seq.concat
      (Stdlib.Seq.init (List.length cs) (fun i ->
           Stdlib.Seq.map
             (fun c' -> mk (List.mapi (fun j c -> if j = i then c' else c) cs))
             (tree_candidates (List.nth cs i))))
  in
  match t with
  | Leaf l ->
    let leaves =
      List.map (fun reads -> Leaf { l with reads }) (drop_nth l.reads)
      @ List.map (fun writes -> Leaf { l with writes }) (drop_nth l.writes)
      @ (if l.work > 0 then [ Leaf { l with work = 0 } ] else [])
    in
    List.to_seq leaves
  | Seq cs ->
    Stdlib.Seq.append
      (List.to_seq
         (cs
         @ (if List.length cs > 1 then
              List.map (fun cs' -> Seq cs') (drop_nth cs)
            else [])
         @ [ trivial_leaf ]))
      (at_children (fun cs' -> Seq cs') cs)
  | Par cs ->
    Stdlib.Seq.append
      (List.to_seq
         (cs
         @ (if List.length cs > 1 then
              List.map (fun cs' -> Par cs') (drop_nth cs)
            else [])
         @ [ trivial_leaf ]))
      (at_children (fun cs' -> Par cs') cs)
  | Fire { rule; src; snk } ->
    Stdlib.Seq.append
      (List.to_seq [ src; snk; trivial_leaf ])
      (at_children
         (function
           | [ src; snk ] -> Fire { rule; src; snk }
           | _ -> assert false)
         [ src; snk ])

let rule_candidates rules : (string * Nd.Fire_rule.rule list) list Stdlib.Seq.t
    =
  Stdlib.Seq.concat
    (Stdlib.Seq.init (List.length rules) (fun i ->
         let name, rs = List.nth rules i in
         let put rs' =
           List.mapi (fun j r -> if j = i then (name, rs') else r) rules
         in
         let dropped = List.map put (drop_nth rs) in
         let weakened =
           List.concat
             (List.mapi
                (fun k (r : Nd.Fire_rule.rule) ->
                  match r.Nd.Fire_rule.via with
                  | Nd.Fire_rule.Full -> []
                  | Nd.Fire_rule.Named _ ->
                    [
                      put
                        (List.mapi
                           (fun j r' ->
                             if j = k then
                               { r' with Nd.Fire_rule.via = Nd.Fire_rule.Full }
                             else r')
                           rs);
                    ])
                rs)
         in
         List.to_seq (dropped @ weakened)))

let candidates spec =
  Stdlib.Seq.append
    (Stdlib.Seq.map (fun tree -> { spec with tree }) (tree_candidates spec.tree))
    (Stdlib.Seq.map (fun rules -> { spec with rules }) (rule_candidates spec.rules))

let shrink spec ~still_fails =
  let budget = 400 and calls = ref 0 in
  let try_cand s =
    if !calls >= budget then false
    else begin
      incr calls;
      still_fails s
    end
  in
  let rec loop spec =
    if !calls >= budget then spec
    else
      match Stdlib.Seq.find try_cand (candidates spec) with
      | Some smaller -> loop smaller
      | None -> spec
  in
  loop spec

(* ------------------------------ building ---------------------------- *)

type instance = {
  spec : spec;
  tree : Nd.Spawn_tree.t;
  registry : Nd.Fire_rule.registry;
  memory : int array;
  counts : int Atomic.t array;
}

let build spec =
  let n = n_leaves spec in
  let memory = Array.make (max 1 spec.mem) 0 in
  let counts = Array.init n (fun _ -> Atomic.make 0) in
  let idx = ref 0 in
  let rec conv t =
    match t with
    | Leaf l ->
      let i = !idx in
      incr idx;
      let reads = Is.of_intervals l.reads
      and writes = Is.of_intervals l.writes in
      let ri = Is.intervals reads and wi = Is.intervals writes in
      let action () =
        (* all reads first, then writes: the stored value depends on
           what conflicting strands wrote before us, so an unordered
           conflicting pair yields an order-dependent memory image *)
        let sum = ref 0 in
        List.iter
          (fun (lo, hi) ->
            for a = lo to hi - 1 do
              sum := !sum + memory.(a)
            done)
          ri;
        let h = (!sum * 31) lxor ((i + 1) * 0x9E3779B9) in
        List.iter
          (fun (lo, hi) ->
            for a = lo to hi - 1 do
              memory.(a) <- (h + a) land 0x3FFFFFFF
            done)
          wi;
        Atomic.incr counts.(i)
      in
      Nd.Spawn_tree.leaf
        (Nd.Strand.make
           ~label:(Printf.sprintf "s%d" i)
           ~work:l.work ~reads ~writes ~action ())
    | Seq cs -> Nd.Spawn_tree.seq (List.map conv cs)
    | Par cs -> Nd.Spawn_tree.par (List.map conv cs)
    | Fire { rule; src; snk } ->
      let a = conv src in
      let b = conv snk in
      Nd.Spawn_tree.fire ~rule a b
  in
  let tree = conv spec.tree in
  let registry =
    List.fold_left
      (fun reg (name, rules) -> Nd.Fire_rule.define reg name rules)
      Nd.Fire_rule.empty_registry spec.rules
  in
  { spec; tree; registry; memory; counts }

let reset i =
  Array.fill i.memory 0 (Array.length i.memory) 0;
  Array.iter (fun c -> Atomic.set c 0) i.counts
