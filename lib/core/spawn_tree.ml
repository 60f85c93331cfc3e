type t =
  | Leaf of Strand.t
  | Seq of t list
  | Par of t list
  | Fire of { rule : string; src : t; snk : t }

let leaf s = Leaf s

let seq = function
  | [] -> invalid_arg "Spawn_tree.seq: empty"
  | [ x ] -> x
  | l -> Seq l

let par = function
  | [] -> invalid_arg "Spawn_tree.par: empty"
  | [ x ] -> x
  | l -> Par l

let fire ~rule src snk = Fire { rule; src; snk }

let child t i =
  match t with
  | Leaf _ -> raise Not_found
  | Seq l | Par l -> ( try List.nth l (i - 1) with Failure _ -> raise Not_found)
  | Fire { src; snk; _ } ->
    if i = 1 then src else if i = 2 then snk else raise Not_found

let resolve t p =
  let rec go t = function
    | [] -> (t, [])
    | step :: rest as pending -> (
      match child t step with
      | c -> go c rest
      | exception Not_found -> (t, pending))
  in
  go t (Pedigree.to_list p)

let rec n_leaves = function
  | Leaf _ -> 1
  | Seq l | Par l -> List.fold_left (fun acc c -> acc + n_leaves c) 0 l
  | Fire { src; snk; _ } -> n_leaves src + n_leaves snk

let rec depth = function
  | Leaf _ -> 1
  | Seq l | Par l -> 1 + List.fold_left (fun acc c -> max acc (depth c)) 0 l
  | Fire { src; snk; _ } -> 1 + max (depth src) (depth snk)

let rec work = function
  | Leaf s -> s.Strand.work
  | Seq l | Par l -> List.fold_left (fun acc c -> acc + work c) 0 l
  | Fire { src; snk; _ } -> work src + work snk

let rec np_span = function
  | Leaf s -> s.Strand.work
  | Seq l -> List.fold_left (fun acc c -> acc + np_span c) 0 l
  | Par l -> List.fold_left (fun acc c -> max acc (np_span c)) 0 l
  | Fire { src; snk; _ } -> np_span src + np_span snk

let rec serialize_fires = function
  | Leaf _ as t -> t
  | Seq l -> Seq (List.map serialize_fires l)
  | Par l -> Par (List.map serialize_fires l)
  | Fire { src; snk; _ } -> Seq [ serialize_fires src; serialize_fires snk ]

let fire_types t =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Leaf _ -> ()
    | Seq l | Par l -> List.iter go l
    | Fire { rule; src; snk } ->
      if not (Hashtbl.mem seen rule) then begin
        Hashtbl.add seen rule ();
        acc := rule :: !acc
      end;
      go src;
      go snk
  in
  go t;
  List.rev !acc

let rec pp ppf = function
  | Leaf s -> Format.fprintf ppf "%s" s.Strand.label
  | Seq l ->
    Format.fprintf ppf "(@[%a@])"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ;@ ") pp)
      l
  | Par l ->
    Format.fprintf ppf "(@[%a@])"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ||@ ") pp)
      l
  | Fire { rule; src; snk } ->
    Format.fprintf ppf "(@[%a ~%s~>@ %a@])" pp src rule pp snk
