(* The fire-arrow walk as Program.compile, Cost.analyze and
   Lint.dead_rules each carried it before they shared Nd.Drs: polymorphic
   Hashtbls keyed by (a, b, rule-name) triples and (a, b) pairs.  It
   emits full edges as Program's copy did (deduplicated, first emission
   first) and tallies rule applications as Lint's copy did; the three
   copies walked the same arrows.  Kept only as the differential
   reference for test_core. *)

module Fire_rule = Nd.Fire_rule
module Pedigree = Nd.Pedigree

type resolution = Clean | Bottomed | Mismatch

let resolve children id ped =
  let rec go id = function
    | [] -> (id, Clean)
    | step :: rest ->
      let cs = children.(id) in
      let len = Array.length cs in
      if len = 0 then (id, Bottomed)
      else if step >= 1 && step <= len then go cs.(step - 1) rest
      else (id, Mismatch)
  in
  go id (Pedigree.to_list ped)

(* Same inputs as [Nd.Drs.rewrite]; the tallies come back as
   [((set, index), (applies, cleans, bottoms))], sorted. *)
let rewrite ~who ~registry ~children ~edge fires =
  let stats = Hashtbl.create 32 in
  let tally key ra rb =
    let applies, cleans, bottoms =
      Option.value ~default:(0, 0, 0) (Hashtbl.find_opt stats key)
    in
    let cleans, bottoms =
      match (ra, rb) with
      | Clean, Clean -> (cleans + 1, bottoms)
      | Mismatch, _ | _, Mismatch -> (cleans, bottoms)
      | (Bottomed | Clean), (Bottomed | Clean) -> (cleans, bottoms + 1)
    in
    Hashtbl.replace stats key (applies + 1, cleans, bottoms)
  in
  let pairs = Hashtbl.create 256 in
  let full_edge a b =
    if a <> b && not (Hashtbl.mem pairs (a, b)) then begin
      Hashtbl.add pairs (a, b) ();
      edge a b
    end
  in
  let is_leaf id = children.(id) = [||] in
  let visited = Hashtbl.create 4096 in
  let rec process a b = function
    | Fire_rule.Full -> full_edge a b
    | Fire_rule.Named r ->
      if not (Hashtbl.mem visited (a, b, r)) then begin
        Hashtbl.add visited (a, b, r) ();
        let rules =
          try Fire_rule.find registry r
          with Not_found ->
            invalid_arg (Printf.sprintf "%s: undefined fire type %S" who r)
        in
        if rules <> [] then
          if is_leaf a && is_leaf b then full_edge a b
          else
            List.iteri
              (fun idx { Fire_rule.src; via; dst } ->
                let a', ra = resolve children a src in
                let b', rb = resolve children b dst in
                tally (r, idx) ra rb;
                match via with
                | Fire_rule.Full -> full_edge a' b'
                | Fire_rule.Named r' ->
                  if a' = a && b' = b && r' = r then full_edge a b
                  else process a' b' via)
              rules
      end
  in
  List.iter
    (fun (f, r) -> process children.(f).(0) children.(f).(1) (Fire_rule.Named r))
    fires;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) stats [])
