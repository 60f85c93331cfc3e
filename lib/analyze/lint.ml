module Fire_rule = Nd.Fire_rule
module Drs = Nd.Drs
module Pedigree = Nd.Pedigree
module Program = Nd.Program
module Spawn_tree = Nd.Spawn_tree
module Rule_check = Nd.Rule_check
module Dag = Nd_dag.Dag
module Json = Nd_util.Json

(* The linter rule catalogue (IDs are stable; see DESIGN.md §9):

   ND001  error    dangling fire-type reference (rule via / spawn tree)
   ND002  warning  dead rule: pedigree never resolves at any use site
   ND003  warning  duplicate rule within a set
   ND004  warning  rule shadowed by a full-dependency rule with the
                   same endpoints
   ND005  error    rule-graph cycle with no structural descent (every
                   step has empty pedigrees: the rewriting cannot make
                   progress; a cycle reaching a type that fires itself
                   degrades to a full edge, any other emits no edge,
                   and the message says which)
   ND006  warning  fire ≡ seq at a fire node: the rule set emits a
                   root-to-root full edge, serializing the construct
                   (span pessimization)
   ND007  warning  fires recover no span: the compiled DAG's span equals
                   the fully-serialized projection's
   ND008  retired  (was a tree-only footprint check of Par siblings;
                   ND009 reports those races; the ID is never reused)
   ND009  error    determinacy race (ESP-bags), reported with the same
                   LCA + pedigree diagnosis as Rule_check, under a par
                   node, an empty-rule-set fire or a fire whose rules
                   miss an arrow
   ND010  warning  span not recovered asymptotically: over a size sweep
                   of the structural Cost pass, the NP/ND span ratio
                   does not grow (static, asymptotic version of ND007)
   ND011  warning  peak footprint exceeds the outermost cache level: no
                   tree_sched budget below the working set avoids
                   top-level misses
   ND012  warning  parallelism below the processor count: Brent's bound
                   caps speedup at work/span (slack < 1)
   ND013  warning  fire-rule chain of length Theta(work): span equals
                   work, the construct is fully serial *)

type severity = Error | Warning

type finding = {
  id : string;
  severity : severity;
  subject : string;  (** rule-set name, node path, or workload name *)
  message : string;
}

let finding id severity subject fmt =
  Printf.ksprintf (fun message -> { id; severity; subject; message }) fmt

let severity_name = function Error -> "error" | Warning -> "warning"

let has_errors = List.exists (fun f -> f.severity = Error)

let filter_min_severity min fs =
  match min with
  | Warning -> fs
  | Error -> List.filter (fun f -> f.severity = Error) fs

let pp_finding ppf f =
  Format.fprintf ppf "%s %s (%s): %s" (severity_name f.severity) f.id
    f.subject f.message

let to_json findings =
  Json.List
    (List.map
       (fun f ->
         Json.Obj
           [
             ("id", Json.String f.id);
             ("severity", Json.String (severity_name f.severity));
             ("subject", Json.String f.subject);
             ("message", Json.String f.message);
           ])
       findings)

let rule_str r = Format.asprintf "%a" Fire_rule.pp_rule r

(* ------------------------- registry checks ------------------------- *)

let lint_registry reg =
  let fs = ref [] in
  let add f = fs := f :: !fs in
  let names = Fire_rule.names reg in
  List.iter
    (fun name ->
      let rules = Fire_rule.find reg name in
      (* ND001: dangling via targets *)
      List.iteri
        (fun idx r ->
          match r.Fire_rule.via with
          | Fire_rule.Full -> ()
          | Fire_rule.Named t ->
            if not (Fire_rule.mem reg t) then
              add
                (finding "ND001" Error name
                   "rule #%d (%s) references undefined fire type %S" (idx + 1)
                   (rule_str r) t))
        rules;
      (* ND003: duplicates; ND004: shadowed by a Full rule *)
      let seen = Hashtbl.create 8 in
      let full_pairs = Hashtbl.create 8 in
      List.iter
        (fun r ->
          if r.Fire_rule.via = Fire_rule.Full then
            Hashtbl.replace full_pairs (r.Fire_rule.src, r.Fire_rule.dst) ())
        rules;
      List.iteri
        (fun idx r ->
          if Hashtbl.mem seen r then
            add
              (finding "ND003" Warning name
                 "rule #%d (%s) duplicates an earlier rule" (idx + 1)
                 (rule_str r))
          else Hashtbl.add seen r ();
          match r.Fire_rule.via with
          | Fire_rule.Named _
            when Hashtbl.mem full_pairs (r.Fire_rule.src, r.Fire_rule.dst) ->
            add
              (finding "ND004" Warning name
                 "rule #%d (%s) is shadowed by a full-dependency rule with \
                  the same endpoints"
                 (idx + 1) (rule_str r))
          | Fire_rule.Named _ | Fire_rule.Full -> ())
        rules)
    names;
  (* ND005: cycles among no-progress edges (src and dst both empty) *)
  let no_progress = Hashtbl.create 16 in
  List.iter
    (fun name ->
      List.iter
        (fun r ->
          match r.Fire_rule.via with
          | Fire_rule.Named t
            when Pedigree.to_list r.Fire_rule.src = []
                 && Pedigree.to_list r.Fire_rule.dst = []
                 && Fire_rule.mem reg t ->
            Hashtbl.replace no_progress name
              (t :: (try Hashtbl.find no_progress name with Not_found -> []))
          | Fire_rule.Named _ | Fire_rule.Full -> ())
        (Fire_rule.find reg name))
    names;
  (* DFS 3-coloring over the no-progress subgraph *)
  let color = Hashtbl.create 16 in
  let on_cycle = Hashtbl.create 4 in
  let rec dfs n stack =
    match Hashtbl.find_opt color n with
    | Some `Done -> ()
    | Some `Active ->
      (* [stack] back to [n] is a cycle *)
      let rec take acc = function
        | [] -> acc
        | x :: rest ->
          if x = n then x :: acc else take (x :: acc) rest
      in
      List.iter
        (fun m -> Hashtbl.replace on_cycle m ())
        (take [] stack)
    | None ->
      Hashtbl.replace color n `Active;
      List.iter
        (fun t -> dfs t (n :: stack))
        (try Hashtbl.find no_progress n with Not_found -> []);
      Hashtbl.replace color n `Done
  in
  List.iter (fun n -> dfs n []) names;
  (* Drs.walk emits a full edge for a no-progress step only when it
     fires its own type; a step to another type recurses, and the walk's
     visited set stops it when it comes back to the first type *)
  let full_edge name =
    let seen = Hashtbl.create 8 in
    let rec reaches_self t =
      (not (Hashtbl.mem seen t))
      && begin
           Hashtbl.replace seen t ();
           let ts = try Hashtbl.find no_progress t with Not_found -> [] in
           List.mem t ts || List.exists reaches_self ts
         end
    in
    reaches_self name
  in
  Hashtbl.iter
    (fun name () ->
      add
        (finding "ND005" Error name
           "fire type %S sits on a rule cycle with no structural descent \
            (every step has empty pedigrees); the rewriting cannot refine it %s"
           name
           (if full_edge name then
              "and degrades to a conservative full edge (the cycle reaches a \
               type that fires itself)"
            else
              "and emits no edge for it (the cycle runs through other types \
               back to it), so the two sides of its fires race unless another \
               rule orders them")))
    on_cycle;
  List.rev !fs

(* --------------------------- tree checks --------------------------- *)

let lint_tree reg tree =
  List.filter_map
    (fun ty ->
      if Fire_rule.mem reg ty then None
      else
        Some
          (finding "ND001" Error ty
             "fire type %S is used by the spawn tree but not defined in the \
              registry"
             ty))
    (Spawn_tree.fire_types tree)

(* -------------------------- program checks ------------------------- *)

(* The fire nodes of [program] with their rule sets, in node order. *)
let fires program =
  List.filter_map
    (fun n ->
      match Program.kind_of program n with
      | Program.Fire r -> Some (n, r)
      | Program.Leaf _ | Program.Seq | Program.Par -> None)
    (List.init (Program.n_nodes program) Fun.id)

(* ND002 from the per-rule tallies of compile's own walk: a rule is
   dead when every application asked some node for a child it does not
   have — never a clean resolution, never the benign stop at a leaf. *)
let dead_rules program =
  let reg = Program.registry program in
  List.filter_map
    (fun (u : Drs.use) ->
      if u.cleans = 0 && u.bottoms = 0 then
        Some
          (finding "ND002" Warning u.set
             "rule #%d (%s) is dead: its pedigrees address nonexistent \
              children at every one of its %d use sites"
             (u.index + 1)
             (rule_str (List.nth (Fire_rule.find reg u.set) u.index))
             u.applies)
      else None)
    (Program.rule_uses program)

(* ND006: a fire node whose two children are themselves a fire edge.
   One merge pass of the (src, snk)-sorted fire nodes against the
   sorted fire edges. *)
let fire_eq_seq program =
  let is_leaf n = Array.length (Program.children program n) = 0 in
  let queries =
    List.sort compare
      (List.filter_map
         (fun (n, r) ->
           let cs = Program.children program n in
           if is_leaf cs.(0) && is_leaf cs.(1) then None
           else Some (cs.(0), cs.(1), n, r))
         (fires program))
  in
  let n_edges = Program.n_fire_edges program in
  let rec hits qs i acc =
    match qs with
    | [] -> acc
    | _ when i = n_edges -> acc
    | (a, b, n, r) :: qs' ->
      let x = Program.fire_src program i and y = Program.fire_snk program i in
      if a = x && b = y then hits qs' (i + 1) ((n, r) :: acc)
      else if a < x || (a = x && b < y) then hits qs' i acc
      else hits qs (i + 1) acc
  in
  List.map
    (fun (n, r) ->
      finding "ND006" Warning r
        "fire node #%d: rule set %S emits a root-to-root full edge, so the \
         fire construct serializes entirely (fire ≡ seq; span pessimization)"
        n r)
    (List.sort compare (hits queries 0 []))

let no_span_recovered program =
  let tree = Program.tree program in
  if Spawn_tree.fire_types tree = [] then []
  else begin
    let nd_span = Dag.span (Program.dag program) in
    if nd_span = Spawn_tree.np_span tree then
      [
        finding "ND007" Warning "program"
          "the fire rules recover no span: ND span %d equals the \
           fully-serialized projection's (the arrows may still relax \
           scheduling order for space or locality, but the critical path \
           is no shorter than seq's)"
          nd_span;
      ]
    else []
  end

let races ?verdict program =
  List.map
    (fun (f : Rule_check.finding) ->
      finding "ND009" Error
        (match f.Rule_check.lca_kind with
        | Program.Fire r -> Printf.sprintf "fire %S" r
        | Program.Par -> "par"
        | Program.Seq -> "seq"
        | Program.Leaf _ -> "leaf")
        "%s"
        (Format.asprintf "@[<v>%a@]" (Rule_check.pp_finding program) f))
    (Esp_bags.diagnose ?verdict program)

let lint_program ?verdict program =
  dead_rules program @ fire_eq_seq program @ no_span_recovered program
  @ races ?verdict program

(* ------------------------------ driver ----------------------------- *)

(* [program ()] runs only when the static passes found no error, ND001
   or ND005.  Compile raises on the first (an undefined fire type); a
   no-progress rule cycle compiles, but its program is not linted *)
let lint_with ?verdict ~registry tree program =
  let static = lint_registry registry @ lint_tree registry tree in
  if has_errors static then static
  else static @ lint_program ?verdict (program ())

let lint_all ~registry tree =
  lint_with ~registry tree (fun () -> Program.compile ~registry tree)

let lint_compiled ?verdict p =
  lint_with ?verdict ~registry:(Program.registry p) (Program.tree p)
    (fun () -> p)

(* ----------------- structural (Cost-based) checks ------------------ *)

let lint_cost ?machine ?procs ~has_fires cost =
  let r = Cost.report cost in
  let fs = ref [] in
  let add f = fs := f :: !fs in
  (match machine with
  | Some m ->
    let top = Nd_pmh.Pmh.n_levels m in
    let cap = Nd_pmh.Pmh.size m ~level:top in
    if r.Cost.peak_footprint > cap then
      add
        (finding "ND011" Warning "program"
           "peak footprint %d words exceeds the outermost cache (level %d, \
            M=%d): no tree_sched budget below the working set avoids \
            top-level misses; anchor with budget >= %d or expect them"
           r.Cost.peak_footprint top cap r.Cost.peak_footprint)
  | None -> ());
  (match procs with
  | Some p when r.Cost.span > 0 && r.Cost.parallelism < float_of_int p ->
    add
      (finding "ND012" Warning "program"
         "parallelism %.1f (work %d / span %d) is below the %d processors: \
          Brent's bound caps speedup at the parallelism, so the extra \
          processors idle"
         r.Cost.parallelism r.Cost.work r.Cost.span p)
  | Some _ | None -> ());
  if has_fires && r.Cost.n_leaves > 1 && r.Cost.span = r.Cost.work then
    add
      (finding "ND013" Warning "program"
         "span equals work (%d): the rewritten fire-rule chains have length \
          Theta(work) and the construct is fully serial"
         r.Cost.span);
  List.rev !fs

(* ND010: the asymptotic version of ND007.  Compiles the ND tree at a
   sweep of sizes, takes each DAG's span, folds the span of its
   fully-serialized NP projection, and judges whether the fires buy
   span {e asymptotically}: a flat NP/ND span ratio means at best a
   constant factor. *)
let lint_span_sweep ~subject ~build sizes =
  let pts =
    List.filter_map
      (fun n ->
        let registry, tree = build n in
        if Spawn_tree.fire_types tree = [] then None
        else
          let nd = Dag.span (Program.dag (Program.compile ~registry tree)) in
          Some (n, nd, Spawn_tree.np_span tree))
      (List.sort_uniq compare sizes)
  in
  let ratio nd np = float_of_int np /. float_of_int (max 1 nd) in
  match pts with
  | [] -> []
  | [ (n, nd, np) ] ->
    if nd = np then
      [
        finding "ND010" Warning subject
          "no span recovered at n=%d (ND span %d = NP span; give a size \
           sweep for the asymptotic judgment)"
          n nd;
      ]
    else []
  | (n0, nd0, np0) :: _ ->
    let nk, ndk, npk = List.nth pts (List.length pts - 1) in
    let r0 = ratio nd0 np0 and rk = ratio ndk npk in
    let exponents () =
      (* log-log fits are only well-defined on positive spans *)
      if List.for_all (fun (_, nd, np) -> nd > 0 && np > 0) pts then
        let xs = List.map (fun (n, _, _) -> float_of_int n) pts in
        let e_nd, _, _ =
          Nd_util.Stats.power_fit xs
            (List.map (fun (_, nd, _) -> float_of_int nd) pts)
        and e_np, _, _ =
          Nd_util.Stats.power_fit xs
            (List.map (fun (_, _, np) -> float_of_int np) pts)
        in
        Printf.sprintf " (fitted span exponents: ND %.2f, NP %.2f)" e_nd e_np
      else ""
    in
    if rk <= 1.01 then
      [
        finding "ND010" Warning subject
          "the fires recover no span at the largest size: ND span %d = NP \
           span %d at n=%d%s"
          ndk npk nk (exponents ());
      ]
    else if rk <= r0 *. 1.05 then
      [
        finding "ND010" Warning subject
          "the fires recover only a constant span factor: NP/ND ratio %.2f \
           at n=%d vs %.2f at n=%d — no asymptotic recovery%s"
          rk nk r0 n0 (exponents ());
      ]
    else []
