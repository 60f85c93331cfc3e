module Int_set = Nd_util.Int_set

type use = {
  set : string;
  index : int;
  applies : int;
  cleans : int;
  bottoms : int;
}

(* A rule set, compiled the first time the walk reaches it.  [via] holds
   the interned target set, [full] for [;], or [undefined] when the
   registry lacks the name — reported only if an application reaches
   it. *)
type compiled = {
  srcs : int list array;
  dsts : int list array;
  via : int array;
  via_name : string array;
  applies : int array;
  cleans : int array;
  bottoms : int array;
}

let full = -1

let undefined = -2

let walk ~who ~registry ~children ?edge fires =
  let n = Array.length children in
  let names = Array.of_list (Fire_rule.names registry) in
  let n_sets = Array.length names in
  if n > 0 && n_sets > max_int / n / n then
    invalid_arg (who ^ ": too many nodes to pack rewrite keys");
  let ids = Hashtbl.create (2 * n_sets) in
  Array.iteri (fun i name -> Hashtbl.replace ids name i) names;
  let fail name =
    invalid_arg (Printf.sprintf "%s: undefined fire type %S" who name)
  in
  let intern name =
    match Hashtbl.find_opt ids name with Some r -> r | None -> fail name
  in
  let sets = Array.make n_sets None in
  let set_of r =
    match sets.(r) with
    | Some s -> s
    | None ->
      let rules = Array.of_list (Fire_rule.find registry names.(r)) in
      let k = Array.length rules in
      let targets =
        Array.map
          (fun (rule : Fire_rule.rule) ->
            match rule.via with
            | Fire_rule.Full -> (full, "")
            | Fire_rule.Named t -> (
              match Hashtbl.find_opt ids t with
              | Some r' -> (r', t)
              | None -> (undefined, t)))
          rules
      in
      let s =
        {
          srcs = Array.map (fun (rule : Fire_rule.rule) -> Pedigree.to_list rule.src) rules;
          dsts = Array.map (fun (rule : Fire_rule.rule) -> Pedigree.to_list rule.dst) rules;
          via = Array.map fst targets;
          via_name = Array.map snd targets;
          applies = Array.make k 0;
          cleans = Array.make k 0;
          bottoms = Array.make k 0;
        }
      in
      sets.(r) <- Some s;
      s
  in
  (* Descend from [id] along 1-based [steps], stopping at the deepest
     existing node; [stop] records why: 0 consumed every step, 1 hit a
     leaf, 2 asked an internal node for a child it lacks. *)
  let stop = ref 0 in
  let rec resolve id = function
    | [] ->
      stop := 0;
      id
    | step :: rest ->
      let cs = children.(id) in
      let len = Array.length cs in
      if len = 0 then begin
        stop := 1;
        id
      end
      else if step <= len then resolve cs.(step - 1) rest
      else begin
        stop := 2;
        id
      end
  in
  (* Only arrows with an internal end are recorded: an arrow between two
     leaves emits its edge and rewrites nothing further, so meeting it
     again costs one emission, which the expansion that reached it paid
     for.  Sized from the node count and grown by doubling as the walk
     needs; it dies with this call. *)
  let visited = Int_set.create n in
  let emit =
    match edge with
    | None -> fun _ _ -> ()
    | Some f -> fun a b -> if a <> b then f a b
  in
  let is_leaf id = Array.length children.(id) = 0 in
  let rec process a b r =
    if is_leaf a && is_leaf b then begin
      if Array.length (set_of r).via > 0 then emit a b
    end
    else if Int_set.add visited ((((a * n) + b) * n_sets) + r) then begin
      let s = set_of r in
      for i = 0 to Array.length s.via - 1 do
        let a' = resolve a s.srcs.(i) in
        let sa = !stop in
        let b' = resolve b s.dsts.(i) in
        let sb = !stop in
        s.applies.(i) <- s.applies.(i) + 1;
        if sa = 0 && sb = 0 then s.cleans.(i) <- s.cleans.(i) + 1
        else if sa < 2 && sb < 2 then s.bottoms.(i) <- s.bottoms.(i) + 1;
        let r' = s.via.(i) in
        if r' = full then emit a' b'
        else if a' = a && b' = b && r' = r then
          (* no structural progress: conservative full edge *)
          emit a b
        else if r' = undefined then fail s.via_name.(i)
        else process a' b' r'
      done
    end
  in
  List.iter
    (fun (f, rule) ->
      let cs = children.(f) in
      process cs.(0) cs.(1) (intern rule))
    fires;
  let uses = ref [] in
  for r = n_sets - 1 downto 0 do
    match sets.(r) with
    | None -> ()
    | Some s ->
      for i = Array.length s.via - 1 downto 0 do
        if s.applies.(i) > 0 then
          uses :=
            {
              set = names.(r);
              index = i;
              applies = s.applies.(i);
              cleans = s.cleans.(i);
              bottoms = s.bottoms.(i);
            }
            :: !uses
      done
  done;
  !uses

(* a fire-free tree allocates no table *)
let rewrite ~who ~registry ~children ?edge fires =
  if fires = [] then [] else walk ~who ~registry ~children ?edge fires
