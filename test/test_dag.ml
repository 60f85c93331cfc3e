module Dag = Nd_dag.Dag
module Race = Nd_dag.Race
module Is = Nd_util.Interval_set

let v ?(work = 1) ?(reads = Is.empty) ?(writes = Is.empty) dag label =
  Dag.add_vertex dag ~label ~work ~reads ~writes ()

(* gives [dag] the edges [links], in that order *)
let link dag links = Dag.freeze dag (fun f -> List.iter (fun (u, v) -> f u v) links)

(* diamond: a -> b, a -> c, b -> d, c -> d *)
let diamond () =
  let dag = Dag.create () in
  let a = v dag "a" and b = v dag ~work:5 "b" and c = v dag "c" and d = v dag "d" in
  link dag [ (a, b); (a, c); (b, d); (c, d) ];
  (dag, a, b, c, d)

(* a CSR slice as a list *)
let slice off tgt v = List.init (off.(v + 1) - off.(v)) (fun i -> tgt.(off.(v) + i))

let succs dag v =
  let c = Dag.csr dag in
  slice c.Dag.succ_off c.Dag.succ_tgt v

let test_basic () =
  let dag, a, b, c, d = diamond () in
  Alcotest.(check int) "vertices" 4 (Dag.n_vertices dag);
  Alcotest.(check int) "edges" 4 (Dag.n_edges dag);
  Alcotest.(check int) "work" 8 (Dag.work dag);
  (* newest link first *)
  Alcotest.(check (list int)) "succs a" [ c; b ] (succs dag a);
  Alcotest.(check int) "indeg d" 2 (Dag.csr dag).Dag.indeg.(d);
  Alcotest.(check string) "label" "b" (Dag.label dag b)

let frozen = Invalid_argument "Dag: frozen (its adjacency has been read)"

let test_frozen () =
  let dag, a, _, _, d = diamond () in
  Alcotest.check_raises "freeze" frozen (fun () -> link dag [ (d, a) ]);
  Alcotest.check_raises "add_vertex" frozen (fun () -> ignore (v dag "e"));
  Alcotest.(check int) "edges" 4 (Dag.n_edges dag);
  (* a DAG given no edges is frozen, with none, by its first read *)
  let bare = Dag.create () in
  let x = v bare "x" and y = v bare "y" in
  Alcotest.(check int) "no edges" 0 (Dag.n_edges bare);
  Alcotest.(check (list int)) "all sources" [ x; y ] (Dag.sources bare);
  Alcotest.check_raises "freeze after a read" frozen (fun () -> link bare [ (x, y) ])

(* [freeze] reads its edges twice and keeps no copy of them: a second
   pass that differs in count is refused, and the DAG stays open *)
let test_freeze_passes () =
  let dag = Dag.create () in
  let a = v dag "a" and b = v dag "b" and c = v dag "c" in
  let calls = ref 0 in
  Dag.freeze dag (fun f ->
      incr calls;
      f a b;
      f b c);
  Alcotest.(check int) "two passes" 2 !calls;
  Alcotest.(check int) "edges" 2 (Dag.n_edges dag);
  let changed = Invalid_argument "Dag.freeze: the second pass gave another edge count" in
  List.iter
    (fun (what, second) ->
      let dag = Dag.create () in
      let a = v dag "a" and b = v dag "b" and c = v dag "c" in
      let first = ref true in
      Alcotest.check_raises what changed (fun () ->
          Dag.freeze dag (fun f ->
              f a b;
              if !first then f b c else List.iter (fun (u, w) -> f u w) second;
              first := false));
      link dag [ (a, c) ];
      Alcotest.(check int) (what ^ ": still open") 1 (Dag.n_edges dag))
    [ ("fewer", []); ("more", [ (b, c); (a, c) ]) ]

let test_duplicate_edge () =
  let dag = Dag.create () in
  let a = v dag "a" and b = v dag "b" in
  link dag [ (a, b); (a, b) ];
  Alcotest.(check int) "deduped" 1 (Dag.n_edges dag)

let test_self_loop_rejected () =
  let dag = Dag.create () in
  let a = v dag "a" in
  Alcotest.check_raises "self loop" (Invalid_argument "Dag.freeze: self loop")
    (fun () -> link dag [ (a, a) ]);
  Alcotest.check_raises "id out of range" (Invalid_argument "Dag: vertex id out of range")
    (fun () -> link dag [ (a, a + 1) ])

let test_span () =
  let dag, _, _, _, _ = diamond () in
  (* longest path a(1) b(5) d(1) = 7 *)
  Alcotest.(check int) "span" 7 (Dag.span dag)

let test_critical_path () =
  let dag, a, b, _, d = diamond () in
  Alcotest.(check (list int)) "path" [ a; b; d ] (Dag.critical_path dag)

let test_topo () =
  let dag, a, b, c, d = diamond () in
  let order = Dag.topo_order dag in
  let pos = Array.make 4 0 in
  Array.iteri (fun i x -> pos.(x) <- i) order;
  Alcotest.(check bool) "a before b" true (pos.(a) < pos.(b));
  Alcotest.(check bool) "a before c" true (pos.(a) < pos.(c));
  Alcotest.(check bool) "b before d" true (pos.(b) < pos.(d));
  Alcotest.(check bool) "c before d" true (pos.(c) < pos.(d))

let test_cycle_detection () =
  let dag = Dag.create () in
  let a = v dag "a" and b = v dag "b" and c = v dag "c" in
  link dag [ (a, b); (b, c); (c, a) ];
  (match Dag.topo_order dag with
  | exception Dag.Cycle _ -> ()
  | _ -> Alcotest.fail "cycle not detected")

(* the witness is on the cycle, not downstream of it *)
let test_cycle_witness () =
  let dag = Dag.create () in
  let a = v dag "a" and b = v dag "b" and c = v dag "c" in
  link dag [ (a, b); (b, a); (b, c) ];
  match Dag.topo_order dag with
  | exception Dag.Cycle w ->
    if w <> a && w <> b then Alcotest.failf "witness %s is not on the cycle" (Dag.label dag w)
  | _ -> Alcotest.fail "cycle not detected"

let test_sources () =
  let dag, a, _, _, _ = diamond () in
  Alcotest.(check (list int)) "sources" [ a ] (Dag.sources dag)

let test_weighted () =
  let dag, _, b, _, _ = diamond () in
  (* constant weights: longest path has 3 vertices *)
  Alcotest.(check int) "hops" 3 (Dag.longest_path_weighted dag (fun _ -> 1));
  Alcotest.(check int) "only-b" 1
    (Dag.longest_path_weighted dag (fun x -> if x = b then 1 else 0))

let test_reachability () =
  let dag, a, b, c, d = diamond () in
  let r = Race_ref.reachability dag in
  Alcotest.(check bool) "a->d" true (Race_ref.reachable r a d);
  Alcotest.(check bool) "b->c" false (Race_ref.reachable r b c);
  Alcotest.(check bool) "c->b" false (Race_ref.reachable r c b);
  Alcotest.(check bool) "self" true (Race_ref.reachable r b b);
  Alcotest.(check bool) "d->a" false (Race_ref.reachable r d a)

let test_reachability_chain () =
  let dag = Dag.create () in
  let n = 200 in
  let vs = Array.init n (fun i -> v dag (string_of_int i)) in
  link dag (List.init (n - 1) (fun i -> (vs.(i), vs.(i + 1))));
  let r = Race_ref.reachability dag in
  Alcotest.(check bool) "0 -> last" true (Race_ref.reachable r vs.(0) vs.(n - 1));
  Alcotest.(check bool) "last -> 0" false (Race_ref.reachable r vs.(n - 1) vs.(0));
  Alcotest.(check int) "span = n" n (Dag.span dag)

(* ------------------ CSR vs the list-based DAG --------------------- *)

module Ref = Dag_ref

let stress_iters =
  match Sys.getenv_opt "NDSIM_STRESS_ITERS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 3)
  | None -> 3

(* [n] vertices with works [works], and the links [links] in order.
   With [acyclic] each link is oriented along a random vertex ranking,
   so a DAG's ids are not in topological order; without it, cycles may
   form. *)
type case = {
  works : int list;
  rank : int list;
  links : (int * int) list;
  acyclic : bool;
}

let gen_case =
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    let* works = list_repeat n (int_range 0 5) in
    let* rank = shuffle_l (List.init n Fun.id) in
    let* acyclic = frequency [ (3, return true); (1, return false) ] in
    let pick = int_range 0 (n - 1) in
    let* links = small_list (pair pick pick) in
    (* a prefix again, so duplicate links are common *)
    let* k = int_range 0 (List.length links) in
    return { works; rank; links = links @ List.filteri (fun i _ -> i < k) links; acyclic })

let print_case c =
  Printf.sprintf "works=[%s] rank=[%s] acyclic=%b links=[%s]"
    (String.concat ";" (List.map string_of_int c.works))
    (String.concat ";" (List.map string_of_int c.rank))
    c.acyclic
    (String.concat ";"
       (List.map (fun (u, v) -> Printf.sprintf "%d>%d" u v) c.links))

(* the links a case makes, self loops dropped *)
let links c =
  let rank = Array.of_list c.rank in
  List.filter_map
    (fun (u, v) ->
      if u = v then None
      else if c.acyclic && rank.(u) > rank.(v) then Some (v, u)
      else Some (u, v))
    c.links

let build c =
  let dag = Dag.create () and r = Ref.create () in
  List.iteri
    (fun i work ->
      let label = string_of_int i in
      ignore (Dag.add_vertex dag ~label ~work ~reads:Is.empty ~writes:Is.empty ());
      ignore (Ref.add_vertex r ~label ~work ~reads:Is.empty ~writes:Is.empty ()))
    c.works;
  link dag (links c);
  List.iter (fun (u, v) -> Ref.add_edge r u v) (links c);
  (dag, r)

let fail fmt = QCheck2.Test.fail_reportf fmt

let prop_matches_reference =
  QCheck2.Test.make ~name:"CSR DAG = list reference"
    ~count:(min 20_000 (max 1000 (100 * stress_iters)))
    ~print:print_case gen_case
    (fun case ->
      let dag, r = build case in
      let n = Dag.n_vertices dag in
      if Dag.n_edges dag <> Ref.n_edges r then
        fail "n_edges %d, reference %d" (Dag.n_edges dag) (Ref.n_edges r);
      for v = 0 to n - 1 do
        if succs dag v <> Ref.succs r v then fail "succ slice of %d" v;
        if (Dag.csr dag).Dag.indeg.(v) <> List.length (Ref.preds r v) then
          fail "indeg of %d" v
      done;
      let c = Dag.csr dag and rc = Ref.csr r in
      if (c.Dag.succ_off, c.Dag.succ_tgt, c.Dag.indeg)
         <> (rc.Ref.succ_off, rc.Ref.succ_tgt, rc.Ref.indeg)
      then fail "CSR arrays";
      if Dag.sources dag <> Ref.sources r then fail "sources";
      (match Ref.topo_order r with
      | order ->
        if Dag.topo_order dag <> order then fail "topo_order";
        if Dag.span dag <> Ref.span r then fail "span";
        if Dag.critical_path dag <> Ref.critical_path r then fail "critical_path";
        let reach = Race_ref.reachability dag and rreach = Ref.reachability r in
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            if Race_ref.reachable reach u v <> Ref.reachable rreach u v then
              fail "reachable %d %d" u v
          done
        done
      | exception Ref.Cycle _ -> (
        match Dag.topo_order dag with
        | _ -> fail "cycle not detected"
        | exception Dag.Cycle w ->
          (* on a cycle: [w] is reachable from one of its successors *)
          let seen = Array.make n false in
          let rec visit u =
            if not seen.(u) then begin
              seen.(u) <- true;
              List.iter visit (succs dag u)
            end
          in
          List.iter visit (succs dag w);
          if not seen.(w) then fail "witness %d is not on a cycle" w));
      true)

(* -------------------------- race detector ------------------------- *)

let test_race_found () =
  let dag = Dag.create () in
  let w = Is.interval 0 4 in
  let a = v dag ~writes:w "a" and b = v dag ~writes:w "b" in
  ignore a;
  ignore b;
  (match Race_ref.find_races dag with
  | [ r ] ->
    Alcotest.(check bool) "write-write" true r.Race.write_write;
    Alcotest.(check int) "overlap" 4 (Is.cardinal r.Race.overlap)
  | other -> Alcotest.failf "expected 1 race, got %d" (List.length other));
  Alcotest.(check bool) "not race free" false (Race_ref.race_free dag)

let test_race_ordered_ok () =
  let dag = Dag.create () in
  let w = Is.interval 0 4 in
  let a = v dag ~writes:w "a" and b = v dag ~writes:w "b" in
  link dag [ (a, b) ];
  Alcotest.(check bool) "ordered: race free" true (Race_ref.race_free dag)

let test_race_read_read_ok () =
  let dag = Dag.create () in
  let r = Is.interval 0 4 in
  let _ = v dag ~reads:r "a" and _ = v dag ~reads:r "b" in
  Alcotest.(check bool) "read-read: race free" true (Race_ref.race_free dag)

let test_race_read_write () =
  let dag = Dag.create () in
  let _ = v dag ~reads:(Is.interval 0 4) "a" in
  let _ = v dag ~writes:(Is.interval 2 6) "b" in
  match Race_ref.find_races dag with
  | [ r ] -> Alcotest.(check bool) "read-write" false r.Race.write_write
  | other -> Alcotest.failf "expected 1 race, got %d" (List.length other)

let test_race_disjoint_ok () =
  let dag = Dag.create () in
  let _ = v dag ~writes:(Is.interval 0 4) "a" in
  let _ = v dag ~writes:(Is.interval 4 8) "b" in
  Alcotest.(check bool) "disjoint: race free" true (Race_ref.race_free dag)

let test_race_limit () =
  let dag = Dag.create () in
  let w = Is.interval 0 1 in
  for i = 0 to 9 do
    ignore (v dag ~writes:w (string_of_int i))
  done;
  Alcotest.(check int) "limit respected" 3
    (List.length (Race_ref.find_races ~limit:3 dag))

let () =
  Alcotest.run "nd_dag"
    [
      ( "dag",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "duplicate edges" `Quick test_duplicate_edge;
          Alcotest.test_case "self loop" `Quick test_self_loop_rejected;
          Alcotest.test_case "span" `Quick test_span;
          Alcotest.test_case "critical path" `Quick test_critical_path;
          Alcotest.test_case "topo order" `Quick test_topo;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "cycle witness" `Quick test_cycle_witness;
          Alcotest.test_case "frozen after a read" `Quick test_frozen;
          Alcotest.test_case "freeze reads its edges twice" `Quick test_freeze_passes;
          Alcotest.test_case "sources" `Quick test_sources;
          Alcotest.test_case "weighted longest path" `Quick test_weighted;
          Alcotest.test_case "reachability" `Quick test_reachability;
          Alcotest.test_case "reachability chain" `Quick test_reachability_chain;
          QCheck_alcotest.to_alcotest prop_matches_reference;
        ] );
      ( "race",
        [
          Alcotest.test_case "write-write found" `Quick test_race_found;
          Alcotest.test_case "ordered ok" `Quick test_race_ordered_ok;
          Alcotest.test_case "read-read ok" `Quick test_race_read_read_ok;
          Alcotest.test_case "read-write found" `Quick test_race_read_write;
          Alcotest.test_case "disjoint ok" `Quick test_race_disjoint_ok;
          Alcotest.test_case "limit" `Quick test_race_limit;
        ] );
    ]
