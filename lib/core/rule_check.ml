module Race = Nd_dag.Race

type finding = {
  race : Race.race;
  lca : Program.node_id;
  lca_kind : Program.kind;
  src_pedigree : Pedigree.t;
  dst_pedigree : Pedigree.t;
}

let lca program a b =
  (* post-order ids: an ancestor's subtree is the id range
     [first_node, id]; walk up from the later id until it covers both *)
  let rec up n =
    if Program.is_ancestor program n a && Program.is_ancestor program n b then n
    else
      let p = Program.parent program n in
      if p < 0 then n else up p
  in
  up (max a b)

let child_index program ~parent node =
  let cs = Program.children program parent in
  let rec find i =
    if i >= Array.length cs then
      invalid_arg "Rule_check: node not a child of parent"
    else if
      cs.(i) = node || Program.is_ancestor program cs.(i) node
    then i + 1
    else find (i + 1)
  in
  find 0

let pedigree_from program ~ancestor node =
  if not (Program.is_ancestor program ancestor node) then
    invalid_arg "Rule_check.pedigree_from: not an ancestor";
  let rec go cur acc =
    if cur = node then Pedigree.of_list acc
    else
      let step = child_index program ~parent:cur node in
      let cs = Program.children program cur in
      go cs.(step - 1) (acc @ [ step ])
  in
  go ancestor []

let lift program (r : Race.race) =
  let nu = Program.vertex_owner program r.Race.u in
  let nv = Program.vertex_owner program r.Race.v in
  let anc = lca program nu nv in
  (* orient source = the strand earlier in DFS (leaf) order *)
  let lo, hi = if nu <= nv then (nu, nv) else (nv, nu) in
  {
    race = r;
    lca = anc;
    lca_kind = Program.kind_of program anc;
    src_pedigree = pedigree_from program ~ancestor:anc lo;
    dst_pedigree = pedigree_from program ~ancestor:anc hi;
  }

let pp_finding program ppf f =
  let dag = Program.dag program in
  let kind_str =
    match f.lca_kind with
    | Program.Leaf _ -> "leaf"
    | Program.Seq -> "seq"
    | Program.Par -> "par"
    | Program.Fire r -> Printf.sprintf "fire %S" r
  in
  Format.fprintf ppf
    "%a@,  unordered under %s node #%d: needs an arrow +%s -> -%s"
    (Race.pp_race dag) f.race kind_str f.lca
    (Pedigree.to_string f.src_pedigree)
    (Pedigree.to_string f.dst_pedigree)
