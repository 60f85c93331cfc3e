module Is = Nd_util.Interval_set
module Dag = Nd_dag.Dag
open Nd

let strand ?(work = 1) ?(reads = Is.empty) ?(writes = Is.empty) label =
  Spawn_tree.leaf (Strand.make ~label ~work ~reads ~writes ())

let analyze_tree ~registry t = Analysis.analyze (Program.compile ~registry t)

(* every Fire replaced by Par [src; snk]: the (unsound in general)
   zero-dependency projection, a lower bound on the ND span *)
let rec parallelize_fires = function
  | Spawn_tree.Leaf _ as t -> t
  | Spawn_tree.Seq l -> Spawn_tree.Seq (List.map parallelize_fires l)
  | Spawn_tree.Par l -> Spawn_tree.Par (List.map parallelize_fires l)
  | Spawn_tree.Fire { src; snk; _ } ->
    Spawn_tree.Par [ parallelize_fires src; parallelize_fires snk ]

(* ---------------------------- pedigree ---------------------------- *)

let test_pedigree () =
  let p = Pedigree.of_list [ 2; 1 ] in
  Alcotest.(check string) "to_string" "<2.1>" (Pedigree.to_string p);
  Alcotest.(check string) "empty" "<>" (Pedigree.to_string Pedigree.empty);
  Alcotest.(check (list int)) "append" [ 2; 1; 3 ]
    (Pedigree.to_list (Pedigree.append p (Pedigree.of_list [ 3 ])));
  Alcotest.(check bool) "equal" true (Pedigree.equal p (Pedigree.of_list [ 2; 1 ]));
  Alcotest.check_raises "0-step rejected"
    (Invalid_argument "Pedigree.of_list: steps are 1-based") (fun () ->
      ignore (Pedigree.of_list [ 0 ]))

(* ---------------------------- strands ----------------------------- *)

let test_strand () =
  let s =
    Strand.make ~label:"s" ~work:3 ~reads:(Is.interval 0 4)
      ~writes:(Is.interval 2 6) ()
  in
  Alcotest.(check int) "size" 6 (Strand.size s);
  Alcotest.(check int) "nop work" 0 (Strand.nop "z").Strand.work;
  Alcotest.check_raises "negative work"
    (Invalid_argument "Strand.make: negative work") (fun () ->
      ignore (Strand.make ~label:"bad" ~work:(-1) ~reads:Is.empty ~writes:Is.empty ()))

(* --------------------------- spawn trees -------------------------- *)

let test_tree_shape () =
  let t = Spawn_tree.seq [ strand "a"; Spawn_tree.par [ strand "b"; strand "c" ] ] in
  Alcotest.(check int) "leaves" 3 (Spawn_tree.n_leaves t);
  Alcotest.(check int) "depth" 3 (Spawn_tree.depth t);
  Alcotest.(check int) "work" 3 (Spawn_tree.work t);
  (* singleton flattening *)
  (match Spawn_tree.seq [ strand "only" ] with
  | Spawn_tree.Leaf _ -> ()
  | _ -> Alcotest.fail "singleton seq not flattened");
  Alcotest.check_raises "empty seq" (Invalid_argument "Spawn_tree.seq: empty")
    (fun () -> ignore (Spawn_tree.seq []))

let test_tree_child_resolve () =
  let f = Spawn_tree.fire ~rule:"R" (strand "x") (strand "y") in
  (match Spawn_tree.child f 1 with
  | Spawn_tree.Leaf s -> Alcotest.(check string) "fire child 1" "x" s.Strand.label
  | _ -> Alcotest.fail "bad child");
  (match Spawn_tree.child f 2 with
  | Spawn_tree.Leaf s -> Alcotest.(check string) "fire child 2" "y" s.Strand.label
  | _ -> Alcotest.fail "bad child");
  let node, rest = Spawn_tree.resolve f (Pedigree.of_list [ 1; 5; 7 ]) in
  (match node with
  | Spawn_tree.Leaf s ->
    Alcotest.(check string) "stops at leaf" "x" s.Strand.label;
    Alcotest.(check (list int)) "suffix" [ 5; 7 ] rest
  | _ -> Alcotest.fail "resolve did not stop at leaf")

let test_projections () =
  let t = Spawn_tree.fire ~rule:"R" (strand "a") (strand "b") in
  (match Spawn_tree.serialize_fires t with
  | Spawn_tree.Seq [ _; _ ] -> ()
  | _ -> Alcotest.fail "serialize");
  (match parallelize_fires t with
  | Spawn_tree.Par [ _; _ ] -> ()
  | _ -> Alcotest.fail "parallelize");
  Alcotest.(check (list string)) "fire types" [ "R" ] (Spawn_tree.fire_types t)

(* --------------------------- fire rules --------------------------- *)

let test_registry () =
  let reg =
    Fire_rule.define Fire_rule.empty_registry "R"
      [ Fire_rule.rule [ 1 ] Fire_rule.Full [ 1 ] ]
  in
  Alcotest.(check int) "one rule" 1 (List.length (Fire_rule.find reg "R"));
  Alcotest.(check bool) "mem" true (Fire_rule.mem reg "R");
  Alcotest.(check bool) "not mem" false (Fire_rule.mem reg "S");
  (match Fire_rule.find reg "S" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found");
  Alcotest.check_raises "redefine"
    (Invalid_argument "Fire_rule.define: \"R\" already defined") (fun () ->
      ignore (Fire_rule.define reg "R" []))

let test_registry_merge () =
  let a = Fire_rule.define Fire_rule.empty_registry "A" [] in
  let b = Fire_rule.define Fire_rule.empty_registry "B" [] in
  let m = Fire_rule.merge a b in
  Alcotest.(check (list string)) "names" [ "A"; "B" ] (Fire_rule.names m);
  (* identical duplicate ok *)
  ignore (Fire_rule.merge m a);
  let a' =
    Fire_rule.define Fire_rule.empty_registry "A"
      [ Fire_rule.rule [ 1 ] Fire_rule.Full [ 1 ] ]
  in
  (match Fire_rule.merge a a' with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "conflicting merge accepted")

(* ------------------- the paper's MAIN/F/G example ------------------ *)
(* MAIN = F ~FG~> G; F = A ; B; G = C ; D; rule FG = { +<1> ; -<1> }.
   The algorithm DAG must order A->B, C->D (serial) and A->C (fire),
   so the span with unit strands is 3 (A,C,D), not 4. *)

let main_fg_program () =
  let f = Spawn_tree.seq [ strand "A"; strand "B" ] in
  let g = Spawn_tree.seq [ strand "C"; strand "D" ] in
  let main = Spawn_tree.fire ~rule:"FG" f g in
  let reg =
    Fire_rule.define Fire_rule.empty_registry "FG"
      [ Fire_rule.rule [ 1 ] Fire_rule.Full [ 1 ] ]
  in
  Program.compile ~registry:reg main

let test_main_fg_span () =
  let p = main_fg_program () in
  let r = Analysis.analyze p in
  Alcotest.(check int) "work" 4 r.Analysis.work;
  Alcotest.(check int) "ND span" 3 r.Analysis.span;
  (* NP projection serializes F before G: span 4 *)
  let f = Spawn_tree.seq [ strand "A"; strand "B" ] in
  let g = Spawn_tree.seq [ strand "C"; strand "D" ] in
  let main = Spawn_tree.fire ~rule:"FG" f g in
  let reg =
    Fire_rule.define Fire_rule.empty_registry "FG"
      [ Fire_rule.rule [ 1 ] Fire_rule.Full [ 1 ] ]
  in
  let np = Analysis.np_of ~registry:reg main in
  Alcotest.(check int) "NP span" 4 np.Analysis.span

let leaf_vertex_by_label p label =
  let n = Program.n_leaves p in
  let rec find i =
    if i >= n then Alcotest.failf "no leaf %s" label
    else
      let v = Program.leaf_vertex p i in
      if Dag.label (Program.dag p) v = label then v else find (i + 1)
  in
  find 0

let test_main_fg_edges () =
  let p = main_fg_program () in
  let dag = Program.dag p in
  let a = leaf_vertex_by_label p "A" in
  let b = leaf_vertex_by_label p "B" in
  let c = leaf_vertex_by_label p "C" in
  let d = leaf_vertex_by_label p "D" in
  let r = Race_ref.reachability dag in
  Alcotest.(check bool) "A->B" true (Race_ref.reachable r a b);
  Alcotest.(check bool) "C->D" true (Race_ref.reachable r c d);
  Alcotest.(check bool) "A->C (fire)" true (Race_ref.reachable r a c);
  Alcotest.(check bool) "B and C unordered" false
    (Race_ref.reachable r b c || Race_ref.reachable r c b);
  Alcotest.(check bool) "B and D unordered" false
    (Race_ref.reachable r b d || Race_ref.reachable r d b)

let test_undefined_rule_rejected () =
  let t = Spawn_tree.fire ~rule:"nope" (strand "a") (strand "b") in
  match Program.compile ~registry:Fire_rule.empty_registry t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undefined rule accepted"

let test_empty_rules_is_parallel () =
  let reg = Fire_rule.define Fire_rule.empty_registry "PAR" [] in
  let t = Spawn_tree.fire ~rule:"PAR" (strand "a") (strand "b") in
  let r = analyze_tree ~registry:reg t in
  Alcotest.(check int) "span 1 = fully parallel" 1 r.Analysis.span

let test_leaf_fire_full () =
  (* non-empty rule set between two strands degrades to a full edge *)
  let reg =
    Fire_rule.define Fire_rule.empty_registry "R"
      [ Fire_rule.rule [ 1 ] (Fire_rule.Named "R") [ 1 ] ]
  in
  let t = Spawn_tree.fire ~rule:"R" (strand "a") (strand "b") in
  let r = analyze_tree ~registry:reg t in
  Alcotest.(check int) "span 2 = serialized" 2 r.Analysis.span

(* ------------------- recursive fire rule example ------------------- *)
(* A binary-recursive "diag" pattern: D(n) = D(n/2) ~R~> D(n/2) with
   R = { +<2> ~R~> -<1> }: the second half of the source fires the first
   half of the sink.  At the leaves this gives a chain of length
   ... source-last -> sink-first ..., so span counts src depth + 1 chain. *)

let rec balanced n =
  if n = 1 then strand "u"
  else Spawn_tree.par [ balanced (n / 2); balanced (n / 2) ]

let test_recursive_rule () =
  let reg =
    Fire_rule.define Fire_rule.empty_registry "R"
      [ Fire_rule.rule [ 2 ] (Fire_rule.Named "R") [ 1 ] ]
  in
  let t = Spawn_tree.fire ~rule:"R" (balanced 4) (balanced 4) in
  let r = analyze_tree ~registry:reg t in
  (* rewriting: +<2> of source vs -<1> of sink recursively: ends with a
     single leaf-to-leaf edge: last leaf-group of src chains into first of
     sink: span = 2 (one src leaf then one sink leaf). *)
  Alcotest.(check int) "work" 8 r.Analysis.work;
  Alcotest.(check int) "span" 2 r.Analysis.span

let test_no_progress_falls_back_to_full () =
  (* a self-referential rule that never descends must degrade to a full
     dependency rather than loop or drop the edge *)
  let reg =
    Fire_rule.define Fire_rule.empty_registry "LOOP"
      [ Fire_rule.rule [] (Fire_rule.Named "LOOP") [] ]
  in
  let t = Spawn_tree.fire ~rule:"LOOP" (balanced 2) (balanced 2) in
  let r = analyze_tree ~registry:reg t in
  Alcotest.(check int) "span serialized" 2 r.Analysis.span

(* --------------------------- rule check ---------------------------- *)

let test_rule_check_clean () =
  let p = main_fg_program () in
  Alcotest.(check int) "no findings" 0 (List.length (Race_ref.diagnose p))

let test_rule_check_finds_missing_rule () =
  (* a fire with an empty rule set over conflicting strands: the race must
     be lifted to that fire node with root-level pedigrees *)
  let w = Is.interval 0 4 in
  let s label = Spawn_tree.leaf (Strand.make ~label ~work:1 ~reads:Is.empty ~writes:w ()) in
  let reg = Fire_rule.define Fire_rule.empty_registry "EMPTY" [] in
  let t = Spawn_tree.fire ~rule:"EMPTY" (s "a") (s "b") in
  let p = Program.compile ~registry:reg t in
  match Race_ref.diagnose p with
  | [ f ] ->
    (match f.Rule_check.lca_kind with
    | Program.Fire "EMPTY" -> ()
    | _ -> Alcotest.fail "lca is not the fire node");
    Alcotest.(check string) "src pedigree" "<1>"
      (Pedigree.to_string f.Rule_check.src_pedigree);
    Alcotest.(check string) "dst pedigree" "<2>"
      (Pedigree.to_string f.Rule_check.dst_pedigree)
  | other -> Alcotest.failf "expected 1 finding, got %d" (List.length other)

let test_pedigree_from () =
  let p = main_fg_program () in
  let root = Program.root p in
  (* leaf 2 = C: inside the fire's sink (child 2), first child of the seq *)
  let c = Program.leaf_vertex p 2 in
  let lift u v =
    Rule_check.lift p { Nd_dag.Race.u; v; overlap = Is.empty; write_write = true }
  in
  let f = lift (Program.leaf_vertex p 0) c in
  Alcotest.(check string) "path to A" "<1.1>"
    (Pedigree.to_string f.Rule_check.src_pedigree);
  Alcotest.(check string) "path to C" "<2.1>"
    (Pedigree.to_string f.Rule_check.dst_pedigree);
  Alcotest.(check int) "lca of leaves" root f.Rule_check.lca;
  let self = lift c c in
  Alcotest.(check string) "self" "<>"
    (Pedigree.to_string self.Rule_check.src_pedigree);
  Alcotest.(check int) "lca of a leaf with itself" (Program.leaf_node p 2)
    self.Rule_check.lca

(* ------------------------- serial executor ------------------------- *)

let test_serial_exec_orders () =
  (* actions record the visit order; dependencies must be respected for
     every random order *)
  let log = ref [] in
  let strand_act label =
    Spawn_tree.leaf
      (Strand.make ~label ~work:1 ~reads:Is.empty ~writes:Is.empty
         ~action:(fun () -> log := label :: !log)
         ())
  in
  let t =
    Spawn_tree.seq
      [ strand_act "1"; Spawn_tree.par [ strand_act "2"; strand_act "3" ];
        strand_act "4" ]
  in
  let p = Program.compile ~registry:Fire_rule.empty_registry t in
  for seed = 1 to 10 do
    log := [];
    Nd.Serial_exec.run ~rng:(Nd_util.Prng.create seed) p;
    match List.rev !log with
    | [ "1"; a; b; "4" ] when (a = "2" && b = "3") || (a = "3" && b = "2") -> ()
    | order -> Alcotest.failf "bad order: %s" (String.concat "," order)
  done;
  (* the DFS variant is deterministic left-to-right *)
  log := [];
  Nd.Serial_exec.run_sequential p;
  Alcotest.(check (list string)) "dfs order" [ "1"; "2"; "3"; "4" ]
    (List.rev !log)

(* --------------------------- program ------------------------------ *)

let test_program_structure () =
  let p = main_fg_program () in
  Alcotest.(check int) "leaves" 4 (Program.n_leaves p);
  let root = Program.root p in
  Alcotest.(check int) "root parent" (-1) (Program.parent p root);
  (match Program.kind_of p root with
  | Program.Fire "FG" -> ()
  | _ -> Alcotest.fail "root kind");
  Alcotest.(check (pair int int)) "root leaf range" (0, 4)
    (Program.leaf_range p root);
  let cs = Program.children p root in
  Alcotest.(check int) "two children" 2 (Array.length cs);
  Alcotest.(check (pair int int)) "src range" (0, 2) (Program.leaf_range p cs.(0));
  Alcotest.(check (pair int int)) "snk range" (2, 4) (Program.leaf_range p cs.(1));
  Alcotest.(check bool) "ancestry" true (Program.is_ancestor p root cs.(0));
  Alcotest.(check bool) "no reverse ancestry" false
    (Program.is_ancestor p cs.(0) root)

let sized_strand label lo hi =
  Spawn_tree.leaf
    (Strand.make ~label ~work:(hi - lo) ~reads:Is.empty ~writes:(Is.interval lo hi) ())

let test_footprint_size () =
  let t =
    Spawn_tree.seq
      [ sized_strand "a" 0 4; sized_strand "b" 2 6; sized_strand "c" 10 12 ]
  in
  let reg = Fire_rule.empty_registry in
  let p = Program.compile ~registry:reg t in
  let root = Program.root p in
  Alcotest.(check int) "size of union" 8 (Program.size p root);
  Alcotest.(check int) "work" 10 (Program.work_of_node p root)

let test_decompose () =
  (* Par of 4 strands of size 4 each, disjoint: total 16.
     m = 8: the root (16) is glue; each pair subtree... build binary. *)
  let quad =
    Spawn_tree.par
      [
        Spawn_tree.par [ sized_strand "a" 0 4; sized_strand "b" 4 8 ];
        Spawn_tree.par [ sized_strand "c" 8 12; sized_strand "d" 12 16 ];
      ]
  in
  let p = Program.compile ~registry:Fire_rule.empty_registry quad in
  let d = Program.decompose p ~m:8 in
  Alcotest.(check int) "two maximal tasks" 2 (Array.length d.Program.tasks);
  Alcotest.(check int) "one glue node" 1 d.Program.n_glue;
  Array.iter
    (fun t -> Alcotest.(check int) "task size" 8 (Program.size p t))
    d.Program.tasks;
  (* m large: root is the single task *)
  let d16 = Program.decompose p ~m:16 in
  Alcotest.(check int) "single task" 1 (Array.length d16.Program.tasks);
  Alcotest.(check int) "no glue" 0 d16.Program.n_glue;
  (* m tiny: every leaf is a task *)
  let d1 = Program.decompose p ~m:1 in
  Alcotest.(check int) "four tasks" 4 (Array.length d1.Program.tasks);
  Alcotest.(check int) "three glue" 3 d1.Program.n_glue;
  (* vertices of a task map to it *)
  Array.iteri
    (fun idx task_node ->
      let lo, hi = Program.leaf_range p task_node in
      for i = lo to hi - 1 do
        let v = Program.leaf_vertex p i in
        Alcotest.(check int) "leaf vertex task" idx d1.Program.task_of_vertex.(v)
      done)
    d1.Program.tasks

let test_decompose_invalid () =
  let p = main_fg_program () in
  Alcotest.check_raises "m<1" (Invalid_argument "Program.decompose: m < 1")
    (fun () -> ignore (Program.decompose p ~m:0))

let test_dag_acyclic_property =
  (* random small spawn trees with a simple diagonal rule are acyclic and
     have span between the Par and Seq projections *)
  let open QCheck2 in
  let gen_tree =
    let rec gen depth =
      Gen.(
        if depth = 0 then
          map (fun w -> strand ~work:(1 + w) "s") (int_bound 3)
        else
          frequency
            [
              (2, map (fun w -> strand ~work:(1 + w) "s") (int_bound 3));
              ( 2,
                map2
                  (fun a b -> Spawn_tree.seq [ a; b ])
                  (gen (depth - 1)) (gen (depth - 1)) );
              ( 2,
                map2
                  (fun a b -> Spawn_tree.par [ a; b ])
                  (gen (depth - 1)) (gen (depth - 1)) );
              ( 1,
                map2
                  (fun a b -> Spawn_tree.fire ~rule:"R" a b)
                  (gen (depth - 1)) (gen (depth - 1)) );
            ])
    in
    gen 4
  in
  let reg =
    Fire_rule.define Fire_rule.empty_registry "R"
      [
        Fire_rule.rule [ 1 ] (Fire_rule.Named "R") [ 1 ];
        Fire_rule.rule [ 2 ] (Fire_rule.Named "R") [ 2 ];
      ]
  in
  QCheck2.Test.make ~name:"ND span between Par and Seq projections" ~count:100
    gen_tree (fun t ->
      let nd = analyze_tree ~registry:reg t in
      let np = Analysis.np_of ~registry:reg t in
      let par =
        analyze_tree ~registry:reg (parallelize_fires t)
      in
      nd.Analysis.work = np.Analysis.work
      && nd.Analysis.span <= np.Analysis.span
      && par.Analysis.span <= nd.Analysis.span)

(* ----------------------- compile identity ------------------------ *)

(* the sorted fire edges as a list *)
let fire_edges p =
  List.init (Program.n_fire_edges p) (fun i ->
      (Program.fire_src p i, Program.fire_snk p i))

(* An MD5 over everything a compile produces that a consumer can
   observe: every vertex's successor slice in order, the edge count,
   the CSR arrays and the fire edges. *)
let compile_digest p =
  let dag = Program.dag p in
  let c = Dag.csr dag in
  let b = Buffer.create 4096 in
  let int x =
    Buffer.add_string b (string_of_int x);
    Buffer.add_char b ','
  in
  let sep () = Buffer.add_char b ';' in
  for v = 0 to Dag.n_vertices dag - 1 do
    for k = c.Dag.succ_off.(v) to c.Dag.succ_off.(v + 1) - 1 do
      int c.Dag.succ_tgt.(k)
    done;
    sep ()
  done;
  int (Dag.n_edges dag);
  sep ();
  List.iter
    (fun a ->
      Array.iter int a;
      sep ())
    [ c.Dag.succ_off; c.Dag.succ_tgt; c.Dag.indeg ];
  List.iter
    (fun (x, y) ->
      int x;
      int y)
    (fire_edges p);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Recorded with this digest from the compiler as it stood when the DAG
   still kept a predecessor CSR (whose own digests, over the predecessor
   slices too, went back to the Hashtbl-based compiler this resolver
   replaced): every family at its first three sweep sizes (family base,
   seed 1), in ND and NP mode. *)
let recorded_digests =
  [
    ("mm", 8, "ND", "45c084f3ee701c2fd2920c183c74cd85");
    ("mm", 8, "NP", "a6d91e7523af8976c3ab1c3cd35b35cb");
    ("mm", 16, "ND", "ef822f59d89c832222b047c16e1834d7");
    ("mm", 16, "NP", "26fbf3baefb27a7a742bd902bb4ad8f2");
    ("mm", 32, "ND", "657611c5e447416b78ac54feaf1edadd");
    ("mm", 32, "NP", "afbcfefe9fe710d03a57c7cf4a220858");
    ("mm8", 8, "ND", "69c4453c8aff4ef3e3ccf9892dbe847a");
    ("mm8", 8, "NP", "69c4453c8aff4ef3e3ccf9892dbe847a");
    ("mm8", 16, "ND", "db740951aa06da72f7c55f0561bd9fc5");
    ("mm8", 16, "NP", "db740951aa06da72f7c55f0561bd9fc5");
    ("mm8", 32, "ND", "e201287dfd19a98cea97b045e1bebaee");
    ("mm8", 32, "NP", "e201287dfd19a98cea97b045e1bebaee");
    ("trs", 8, "ND", "b67e82c47550bda945dbe293dd03eeaa");
    ("trs", 8, "NP", "7c9ba86b09518adfeacac007f3d9a7cf");
    ("trs", 16, "ND", "b4f7cf30824faf7a738ff704b7d0f957");
    ("trs", 16, "NP", "a8e66fedb5ae6355ed14aaa8f7663c0c");
    ("trs", 32, "ND", "176d7f7bff8ed5a14c21e4326d6ab2cc");
    ("trs", 32, "NP", "6a73b459f9280d182bdf2b2cc94d03f4");
    ("cholesky", 8, "ND", "b60fdfc1e2f60da06a9dd8cf09ef738f");
    ("cholesky", 8, "NP", "a61dd3dad08a109afb3af7e3ecfd4a35");
    ("cholesky", 16, "ND", "a3e97a9982f2fb04aad2a7db2dc8bfc7");
    ("cholesky", 16, "NP", "f827f45bbe2920cfa07fb49d4ae63164");
    ("cholesky", 32, "ND", "7326de102247c879b952e69349d591a7");
    ("cholesky", 32, "NP", "3dce628d3f39cd0400cf83cee65d1c94");
    ("lu", 8, "ND", "232898e4215fd3a4bed6094a15c378d7");
    ("lu", 8, "NP", "5ca8c682de8091f396b2b07149c12e6e");
    ("lu", 16, "ND", "337c16696ca75141b67059af85b8d95b");
    ("lu", 16, "NP", "98e711c70d05f6c9b926cc1b9b39dbae");
    ("lu", 32, "ND", "26f532b32c65d694d240fd8096a12134");
    ("lu", 32, "NP", "a81027dc32813419161814b64215151e");
    ("apsp", 8, "ND", "765601cb3c4a4d19c479fe74b98edbbd");
    ("apsp", 8, "NP", "75b4e6a3539a1727ffd2d19f7a242d07");
    ("apsp", 16, "ND", "6b661f640e68448f3df8d6d049fef384");
    ("apsp", 16, "NP", "2d5b50c58d6f4fbee7ed579986a28268");
    ("apsp", 32, "ND", "7b042beb1dc44306e0b0dfb81e4348af");
    ("apsp", 32, "NP", "8aebb844cc143f2a06537445cfc068f3");
    ("fw1d", 32, "ND", "a7c11cacc0e1ea73c9017826c3a68620");
    ("fw1d", 32, "NP", "11e1bc7a047fd881cf4beb31ea95ca6d");
    ("fw1d", 64, "ND", "6ce1c4350a528b7ff5ef969fa4b90487");
    ("fw1d", 64, "NP", "562d308a998a7e405c3a531aa13b42a2");
    ("fw1d", 128, "ND", "ae80529ea90a885e46e6c96e945707fe");
    ("fw1d", 128, "NP", "987396437adfb4fc899229780eb6d308");
    ("stencil", 32, "ND", "9e882ce835cdaa92a70d4a7b3df329ff");
    ("stencil", 32, "NP", "366bbab70a88d7e144dcd5f0ff0fa6eb");
    ("stencil", 64, "ND", "3aa0f11d618edd090eec5fa2a6108abe");
    ("stencil", 64, "NP", "7d89cb5179689306edbea84970f8978f");
    ("stencil", 128, "ND", "8553048c8de17c1d1d13c079e3288ec7");
    ("stencil", 128, "NP", "2b37debf213e18cb03414f89391ab25d");
    ("gotoh", 32, "ND", "77aaa635bdbcea6ab0db69a5b6d8990a");
    ("gotoh", 32, "NP", "2dd2b256d6c0a4f9b486bcfe8f7aedc3");
    ("gotoh", 64, "ND", "7fa7ccfb1c1e95a3bd3f3f27ae228033");
    ("gotoh", 64, "NP", "932cec9ac3ffc2203073104743706640");
    ("gotoh", 128, "ND", "56afacdbcc16791e6ad94197243d586c");
    ("gotoh", 128, "NP", "f9ba740b87088713ea30adbc761ef680");
    ("lcs", 32, "ND", "77aaa635bdbcea6ab0db69a5b6d8990a");
    ("lcs", 32, "NP", "2dd2b256d6c0a4f9b486bcfe8f7aedc3");
    ("lcs", 64, "ND", "7fa7ccfb1c1e95a3bd3f3f27ae228033");
    ("lcs", 64, "NP", "932cec9ac3ffc2203073104743706640");
    ("lcs", 128, "ND", "56afacdbcc16791e6ad94197243d586c");
    ("lcs", 128, "NP", "f9ba740b87088713ea30adbc761ef680");
  ]

let test_compile_identity () =
  let module W = Nd_algos.Workload in
  List.iter
    (fun (name, n, mode, expected) ->
      let f = Nd_experiments.Workloads.find name in
      let w = f.Nd_experiments.Workloads.build ~n ~base:f.base ~seed:1 in
      let mode = if mode = "ND" then W.ND else W.NP in
      Alcotest.(check string)
        (Printf.sprintf "%s n=%d %s" name n (W.mode_name mode))
        expected
        (compile_digest (W.compile ~mode w)))
    recorded_digests;
  Alcotest.(check int) "ten families x three sizes x two modes" 60
    (List.length recorded_digests)

(* Neither the DAG nor the fire edges hold a heap block per edge: the
   adjacency is one int array of E successors plus offsets and
   in-degrees, 2V + 1 words, the fire edges one int array of at most
   two words a pair.  A cons cell per edge, a predecessor half, or a
   boxed pair per fire edge fails this. *)
let test_packed_shape () =
  let f = Nd_experiments.Workloads.find "mm" in
  let p = Nd_algos.Workload.compile (f.Nd_experiments.Workloads.build ~n:32 ~base:2 ~seed:1) in
  let dag = Program.dag p in
  let v = Dag.n_vertices dag and e = Dag.n_edges dag and pairs = Program.n_fire_edges p in
  let w = Program.heap_words p in
  if pairs = 0 then Alcotest.fail "mm has fire edges";
  if w.Program.adjacency > e + (2 * v) + 16 then
    Alcotest.failf "adjacency: %d words for %d edges and %d vertices" w.Program.adjacency e v;
  if w.Program.fire_pairs > (2 * pairs) + 8 then
    Alcotest.failf "fire edges: %d words for %d pairs" w.Program.fire_pairs pairs;
  (* and the DAG holds no other edge storage: past its CSR, only its
     vertices' labels and footprints and O(1) words a vertex *)
  let payload =
    Obj.reachable_words
      (Obj.repr
         (Array.init v (fun x -> (Dag.label dag x, Dag.reads_of dag x, Dag.writes_of dag x))))
  in
  let rest = Obj.reachable_words (Obj.repr dag) - w.Program.adjacency - payload in
  if rest > (4 * v) + 16 then
    Alcotest.failf "DAG: %d words past its CSR and vertex payload (%d edges, %d vertices)" rest e v;
  (* past its spawn tree, its DAG and its fire pairs, a program holds
     O(1) words a spawn-tree node: its node records and tables, no
     interval set a node *)
  let nodes = Program.n_nodes p in
  let own =
    w.Program.program - w.Program.fire_pairs
    - Obj.reachable_words (Obj.repr (Program.tree p, dag))
  in
  if own > 24 * nodes then
    Alcotest.failf "program: %d words past its tree, DAG and fire pairs for %d nodes" own nodes

(* What one compile allocates, in words a fire pair, on mm n=32 b=2
   (8,191 nodes, 249,795 fire pairs).  The walk records only arrows
   with an internal end and keeps no pair set; compile writes the
   emissions into chunks, streams the edges from its nodes and the
   chunks straight into the CSR, and sorts the pairs into their final
   array with the chunks as scratch: about 11 words a pair in all,
   against about 37 when the walk recorded every arrow and kept a pair
   set.  The total moves by a few percent with GC timing.

   An array of more than 256 words is allocated outside the minor heap
   and stays resident until a major cycle sweeps it.  Those words are
   exact, the same on every run: 5.73 a pair, about 2 of them the
   walk's visited table and 1 each the CSR, the fire pairs and the
   chunks.  A link buffer, an emission buffer that doubles, or a
   scratch array for the sort each add about a word a pair; with all
   three compile allocated 8.88. *)
let test_compile_alloc () =
  let f = Nd_experiments.Workloads.find "mm" in
  let w = f.Nd_experiments.Workloads.build ~n:32 ~base:2 ~seed:1 in
  let before = Gc.allocated_bytes () in
  let _, promoted0, major0 = Gc.counters () in
  let p = Program.compile ~registry:w.Nd_algos.Workload.registry w.Nd_algos.Workload.tree in
  let _, promoted1, major1 = Gc.counters () in
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  let pairs = Program.n_fire_edges p in
  if pairs = 0 then Alcotest.fail "mm has fire edges";
  let per_pair = words /. float_of_int pairs in
  if per_pair > 24. then
    Alcotest.failf "compile allocated %.0f words, %.1f a fire pair (%d pairs); the bound is 24"
      words per_pair pairs;
  let direct = major1 -. major0 -. (promoted1 -. promoted0) in
  let direct_per_pair = direct /. float_of_int pairs in
  if direct_per_pair > 6.5 then
    Alcotest.failf
      "compile allocated %.0f words outside the minor heap, %.2f a fire pair (%d pairs); the \
       bound is 6.5"
      direct direct_per_pair pairs

(* Every node's size is the number of distinct addresses its leaves'
   strands touch, and its work their summed work, both recounted here
   leaf by leaf from the node's leaf range. *)
let check_node_sizes what p =
  let strand i =
    match Program.kind_of p (Program.leaf_node p i) with
    | Program.Leaf s -> s
    | Program.Seq | Program.Par | Program.Fire _ -> Alcotest.failf "%s: leaf %d is no leaf" what i
  in
  let seen = Hashtbl.create 1024 in
  for n = 0 to Program.n_nodes p - 1 do
    let lo, hi = Program.leaf_range p n in
    Hashtbl.reset seen;
    let work = ref 0 in
    for i = lo to hi - 1 do
      let s = strand i in
      work := !work + s.Strand.work;
      Is.iter
        (fun a b ->
          for x = a to b - 1 do
            Hashtbl.replace seen x ()
          done)
        (Strand.footprint s)
    done;
    if Program.size p n <> Hashtbl.length seen || Program.work_of_node p n <> !work then
      Alcotest.failf "%s node %d: size %d and work %d, its leaves %d..%d touch %d addresses and work %d"
        what n (Program.size p n) (Program.work_of_node p n) lo hi (Hashtbl.length seen) !work
  done

(* [f what program tree registry] on every family at its two smallest
   sizes, in ND and NP mode *)
let each_family_program f =
  let module W = Nd_algos.Workload in
  List.iter
    (fun (fam : Nd_experiments.Workloads.family) ->
      List.iter
        (fun n ->
          let w = fam.build ~n ~base:fam.base ~seed:1 in
          List.iter
            (fun mode ->
              let p = W.compile ~mode w in
              f
                (Printf.sprintf "%s n=%d %s" fam.name n (W.mode_name mode))
                p (Program.tree p) (Program.registry p))
            [ W.ND; W.NP ])
        (List.filteri (fun i _ -> i < 2) fam.sizes))
    Nd_experiments.Workloads.all

let test_node_sizes_families () =
  each_family_program (fun what p _ _ -> check_node_sizes what p)

(* Vertices are numbered in post-order: every vertex has an owner, the
   owners never decrease, and each subtree's vertices are one contiguous
   id range (counted by owner, recomputed here from the children). *)
let check_vertex_order what p =
  let nv = Dag.n_vertices (Program.dag p) in
  let count = Array.make (Program.n_nodes p) 0 in
  let lo = Array.make (Program.n_nodes p) max_int and hi = Array.make (Program.n_nodes p) (-1) in
  for v = 0 to nv - 1 do
    let o = Program.vertex_owner p v in
    if o < 0 then Alcotest.failf "%s: vertex %d has no owner" what v;
    if v > 0 && o < Program.vertex_owner p (v - 1) then
      Alcotest.failf "%s: owner of vertex %d (%d) below its predecessor's (%d)" what v o
        (Program.vertex_owner p (v - 1));
    count.(o) <- count.(o) + 1;
    lo.(o) <- min lo.(o) v;
    hi.(o) <- max hi.(o) v
  done;
  let rec subtree n =
    Array.iter
      (fun c ->
        subtree c;
        count.(n) <- count.(n) + count.(c);
        lo.(n) <- min lo.(n) lo.(c);
        hi.(n) <- max hi.(n) hi.(c))
      (Program.children p n);
    if count.(n) > 0 && hi.(n) - lo.(n) + 1 <> count.(n) then
      Alcotest.failf "%s: node %d's %d vertices span ids %d..%d" what n count.(n) lo.(n) hi.(n)
  in
  subtree (Program.root p);
  if count.(Program.root p) <> nv then
    Alcotest.failf "%s: the root's subtree holds %d of %d vertices" what
      count.(Program.root p) nv

let test_vertex_order_families () =
  each_family_program (fun what p _ _ -> check_vertex_order what p)

let prop_vertex_order_generated =
  QCheck2.Test.make ~name:"post-order vertices of generated programs" ~count:300
    ~print:Nd_check.Gen.to_string (Nd_check.Gen.gen ())
    (fun spec ->
      let inst = Nd_check.Gen.build spec in
      let registry = inst.Nd_check.Gen.registry and tree = inst.Nd_check.Gen.tree in
      check_vertex_order "ND" (Program.compile ~registry tree);
      check_vertex_order "NP" (Program.compile ~registry (Spawn_tree.serialize_fires tree));
      true)

let prop_node_sizes_generated =
  QCheck2.Test.make ~name:"node sizes and works of generated programs" ~count:250
    ~print:Nd_check.Gen.to_string (Nd_check.Gen.gen ())
    (fun spec ->
      let inst = Nd_check.Gen.build spec in
      let registry = inst.Nd_check.Gen.registry and tree = inst.Nd_check.Gen.tree in
      check_node_sizes "ND" (Program.compile ~registry tree);
      let np = Program.compile ~registry (Spawn_tree.serialize_fires tree) in
      check_node_sizes "NP" np;
      (* and the NP span fold is the span of the compiled NP projection *)
      Spawn_tree.np_span tree = Dag.span (Program.dag np))

(* One cut of the spawn tree and its contraction, checked against
   references rebuilt here: [fits n] says whether node [n] is under the
   cut's bound.  Each task is a maximal fitting subtree (it fits or is a
   leaf, and its parent does not fit), every node and vertex maps to the
   task whose root is its nearest such ancestor, and the other vertices
   (the glue's sync vertices) are parts of their own, numbered on from
   the tasks in vertex order.  The contraction's edges are exactly the
   distinct pairs of different parts that DAG edges join, once each,
   and acyclic. *)
let check_cut what p (d : Program.decomposition) fits =
  let dag = Program.dag p in
  let nv = Dag.n_vertices dag and nn = Program.n_nodes p in
  let tasks = d.Program.tasks and nt = Array.length d.Program.tasks in
  let task_at = Array.make nn (-1) in
  Array.iteri
    (fun i r ->
      if not (fits r || Program.children p r = [||]) then
        Alcotest.failf "%s: task %d (node %d) neither fits nor is a leaf" what i r;
      let up = Program.parent p r in
      if up >= 0 && fits up then
        Alcotest.failf "%s: task %d (node %d) is not maximal: its parent fits" what i r;
      task_at.(r) <- i)
    tasks;
  let rec task_of n =
    if n < 0 then -1 else if task_at.(n) >= 0 then task_at.(n) else task_of (Program.parent p n)
  in
  let n_glue = ref 0 in
  for n = 0 to nn - 1 do
    if task_of n < 0 then begin
      if fits n || Program.children p n = [||] then
        Alcotest.failf "%s: node %d is in no task, yet fits or is a leaf" what n;
      incr n_glue
    end;
    if d.Program.task_of_node.(n) <> task_of n then
      Alcotest.failf "%s: node %d in task %d, expected %d" what n d.Program.task_of_node.(n)
        (task_of n)
  done;
  if d.Program.n_glue <> !n_glue then
    Alcotest.failf "%s: %d glue nodes, expected %d" what d.Program.n_glue !n_glue;
  let next_glue = ref nt in
  for v = 0 to nv - 1 do
    let part = d.Program.task_of_vertex.(v) and t = task_of (Program.vertex_owner p v) in
    let expected =
      if t >= 0 then t
      else begin
        incr next_glue;
        !next_glue - 1
      end
    in
    if part <> expected then
      Alcotest.failf "%s: vertex %d in part %d, expected %d" what v part expected
  done;
  if d.Program.n_parts <> !next_glue then
    Alcotest.failf "%s: %d parts, expected %d" what d.Program.n_parts !next_glue;
  let c = Dag.csr dag in
  let pairs = Hashtbl.create 64 in
  for u = 0 to nv - 1 do
    for k = c.Dag.succ_off.(u) to c.Dag.succ_off.(u + 1) - 1 do
      let pu = d.Program.task_of_vertex.(u)
      and pv = d.Program.task_of_vertex.(c.Dag.succ_tgt.(k)) in
      if pu <> pv then Hashtbl.replace pairs (pu, pv) ()
    done
  done;
  let g = Program.contract p d in
  let cc = Dag.csr g in
  if Dag.n_vertices g <> d.Program.n_parts then
    Alcotest.failf "%s: contraction has %d vertices for %d parts" what (Dag.n_vertices g)
      d.Program.n_parts;
  let last = Array.make d.Program.n_parts (-1) in
  for a = 0 to d.Program.n_parts - 1 do
    for k = cc.Dag.succ_off.(a) to cc.Dag.succ_off.(a + 1) - 1 do
      let b = cc.Dag.succ_tgt.(k) in
      if last.(b) = a then Alcotest.failf "%s: part %d's slice repeats %d" what a b;
      last.(b) <- a;
      if not (Hashtbl.mem pairs (a, b)) then
        Alcotest.failf "%s: edge %d -> %d joins no DAG edge" what a b
    done
  done;
  if Dag.n_edges g <> Hashtbl.length pairs then
    Alcotest.failf "%s: contraction has %d edges, the DAG joins %d pairs" what (Dag.n_edges g)
      (Hashtbl.length pairs);
  ignore (Dag.topo_order g)

(* [decompose] at m in {1, 8, 64, the root's size} and [coarsen] at
   grain in {1, 17, 300, max_int} *)
let check_cuts what p =
  let root_size = Program.size p (Program.root p) in
  List.iter
    (fun m ->
      check_cut
        (Printf.sprintf "%s decompose m=%d" what m)
        p (Program.decompose p ~m)
        (fun n -> Program.size p n <= m))
    [ 1; 8; 64; max 1 root_size ];
  List.iter
    (fun grain ->
      check_cut
        (Printf.sprintf "%s coarsen grain=%d" what grain)
        p (Program.coarsen p ~grain)
        (fun n -> Program.work_of_node p n <= grain))
    [ 1; 17; 300; max_int ]

let test_cuts_families () = each_family_program (fun what p _ _ -> check_cuts what p)

let prop_cuts_generated =
  QCheck2.Test.make ~name:"cuts and contractions of generated programs" ~count:300
    ~print:Nd_check.Gen.to_string (Nd_check.Gen.gen ())
    (fun spec ->
      let inst = Nd_check.Gen.build spec in
      let registry = inst.Nd_check.Gen.registry and tree = inst.Nd_check.Gen.tree in
      check_cuts "ND" (Program.compile ~registry tree);
      check_cuts "NP" (Program.compile ~registry (Spawn_tree.serialize_fires tree));
      true)

(* For m < m' in {1, 8, 64, the root's size}: each m-task's root lies
   under exactly one m'-task root (found here by walking up the tree),
   and the m-tasks under m'-task [i] are the ascending range from the
   m-task holding [i]'s first leaf to the one holding its last. *)
let check_nesting what p =
  let sizes = [ 1; 8; 64; max 1 (Program.size p (Program.root p)) ] in
  List.iter
    (fun m ->
      List.iter
        (fun m' ->
          if m < m' then begin
            let what = Printf.sprintf "%s m=%d in m'=%d" what m m' in
            let d = Program.decompose p ~m and d' = Program.decompose p ~m:m' in
            let root_of = Array.make (Program.n_nodes p) (-1) in
            Array.iteri (fun i r -> root_of.(r) <- i) d'.Program.tasks;
            let rec container n =
              if n < 0 then Alcotest.failf "%s: a task lies in no m'-task" what
              else if root_of.(n) >= 0 then root_of.(n)
              else container (Program.parent p n)
            in
            let inside = Array.make (Array.length d'.Program.tasks) [] in
            for i = Array.length d.Program.tasks - 1 downto 0 do
              let c = container d.Program.tasks.(i) in
              inside.(c) <- i :: inside.(c)
            done;
            Array.iteri
              (fun i r ->
                let lo, hi = Program.leaf_range p r in
                let holding l = d.Program.task_of_node.(Program.leaf_node p l) in
                let first = holding lo and last = holding (hi - 1) in
                let range = List.init (max 0 (last - first + 1)) (fun k -> first + k) in
                if inside.(i) <> range then
                  Alcotest.failf "%s: task %d holds [%s], the leaf range gives %d..%d" what
                    i
                    (String.concat "; " (List.map string_of_int inside.(i)))
                    first last)
              d'.Program.tasks
          end)
        sizes)
    sizes

let test_nesting_families () = each_family_program (fun what p _ _ -> check_nesting what p)

let prop_nesting_generated =
  QCheck2.Test.make ~name:"cuts of generated programs nest" ~count:300
    ~print:Nd_check.Gen.to_string (Nd_check.Gen.gen ())
    (fun spec ->
      let inst = Nd_check.Gen.build spec in
      let registry = inst.Nd_check.Gen.registry and tree = inst.Nd_check.Gen.tree in
      check_nesting "ND" (Program.compile ~registry tree);
      check_nesting "NP" (Program.compile ~registry (Spawn_tree.serialize_fires tree));
      true)

let test_compile_empty () =
  List.iter
    (fun t ->
      match Program.compile ~registry:Fire_rule.empty_registry t with
      | _ -> Alcotest.fail "an empty Seq or Par compiled"
      | exception Invalid_argument _ -> ())
    [ Spawn_tree.Seq []; Spawn_tree.Par []; Spawn_tree.Par [ Spawn_tree.Par []; strand "a" ] ]

(* --------------- resolver vs the old Hashtbl walk ----------------- *)

let stress_iters =
  match Sys.getenv_opt "NDSIM_STRESS_ITERS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 3)
  | None -> 3

(* The compiler's post-order node layout of a spawn tree, and its fire
   nodes in id order. *)
let layout tree =
  let children = ref [] and fires = ref [] and next = ref 0 in
  let node cs =
    let id = !next in
    incr next;
    children := cs :: !children;
    id
  in
  let rec go = function
    | Spawn_tree.Leaf _ -> node [||]
    | Spawn_tree.Seq cs | Spawn_tree.Par cs -> node (Array.of_list (List.map go cs))
    | Spawn_tree.Fire { rule; src; snk } ->
      let a = go src in
      let b = go snk in
      let id = node [| a; b |] in
      fires := (id, rule) :: !fires;
      id
  in
  ignore (go tree);
  (Array.of_list (List.rev !children), List.rev !fires)

(* Generated programs whose registries also carry no-progress rules
   ([] ~R'~> [], which close rule cycles) and rules via an undefined
   set. *)
let gen_rewrite_case =
  let open QCheck2.Gen in
  Nd_check.Gen.gen () >>= fun spec ->
  let names = List.map fst spec.Nd_check.Gen.rules in
  let pedigree = list_size (int_range 0 2) (int_range 1 3) in
  let extra =
    frequency
      [
        (4, return []);
        (2, map (fun r -> [ Fire_rule.rule [] (Fire_rule.Named r) [] ]) (oneofl names));
        ( 1,
          map2
            (fun p q -> [ Fire_rule.rule p (Fire_rule.Named "UNDEF") q ])
            pedigree pedigree );
      ]
  in
  map
    (fun rules -> { spec with Nd_check.Gen.rules })
    (flatten_l
       (List.map
          (fun (name, rs) -> map (fun more -> (name, rs @ more)) extra)
          spec.Nd_check.Gen.rules))

(* the first occurrence of each pair of an emission log, in order *)
let first_occurrences log =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun e ->
      let fresh = not (Hashtbl.mem seen e) in
      if fresh then Hashtbl.add seen e ();
      fresh)
    log

let outcome run =
  let log = ref [] in
  let result =
    match run ~edge:(fun a b -> log := (a, b) :: !log) with
    | tallies -> Ok tallies
    | exception Invalid_argument m -> Error m
  in
  (List.rev !log, result)

let prop_drs_matches_reference =
  QCheck2.Test.make ~name:"Drs.rewrite = the old Hashtbl walk"
    ~count:(min 20_000 (max 500 (50 * stress_iters)))
    ~print:Nd_check.Gen.to_string gen_rewrite_case
    (fun spec ->
      let inst = Nd_check.Gen.build spec in
      let registry = inst.Nd_check.Gen.registry in
      let children, fires = layout inst.Nd_check.Gen.tree in
      let who = "Program.compile" in
      let tallies uses =
        List.map
          (fun (u : Drs.use) -> ((u.set, u.index), (u.applies, u.cleans, u.bottoms)))
          uses
      in
      let edges, result =
        outcome (fun ~edge ->
            tallies (Drs.rewrite ~who ~registry ~children ~edge fires))
      in
      let ref_edges, ref_result =
        outcome (fun ~edge -> Drs_ref.rewrite ~who ~registry ~children ~edge fires)
      in
      (* The walk may emit a pair more than once; the reference emits
         each once.  The raw log's first occurrences are the same edges
         in the same order, with the same tallies or the same error
         after them. *)
      first_occurrences edges = ref_edges
      && result = ref_result
      (* each emission is paid for by a fire node or a rule application *)
      && (match result with
         | Ok t ->
           List.length edges
           <= List.length fires + List.fold_left (fun acc (_, (applies, _, _)) -> acc + applies) 0 t
         | Error _ -> true)
      (* without [edge], the same walk: same tallies, same error *)
      && (match tallies (Drs.rewrite ~who ~registry ~children fires) with
         | t -> result = Ok t
         | exception Invalid_argument m -> result = Error m)
      (* and the compiler agrees: the sorted set of the pairs and a DAG
         without duplicate edges, or the same error *)
      &&
      match Program.compile ~registry inst.Nd_check.Gen.tree with
      | p ->
        let c = Dag.csr (Program.dag p) in
        result = Ok (tallies (Program.rule_uses p))
        && fire_edges p = List.sort_uniq compare edges
        && List.for_all
             (fun v ->
               let lo = c.Dag.succ_off.(v) and hi = c.Dag.succ_off.(v + 1) in
               let ss = Array.to_list (Array.sub c.Dag.succ_tgt lo (hi - lo)) in
               List.length (List.sort_uniq compare ss) = hi - lo)
             (List.init (Array.length c.Dag.indeg) Fun.id)
      | exception Invalid_argument m -> result = Error m)

(* compile keeps the tallies of its own walk: those of a walk without
   [edge] over the same layout *)
let test_rule_uses_families () =
  each_family_program (fun what p tree registry ->
      let children, fires = layout tree in
      if Program.rule_uses p <> Drs.rewrite ~who:"Program.compile" ~registry ~children fires
      then Alcotest.failf "%s: compile's rule tallies differ from a second walk's" what)

(* the NP span fold is the span of the compiled NP projection *)
let test_np_span_families () =
  each_family_program (fun what _ tree registry ->
      let np = Program.compile ~registry (Spawn_tree.serialize_fires tree) in
      Alcotest.(check int) (what ^ ": NP span") (Dag.span (Program.dag np)) (Spawn_tree.np_span tree))

let () =
  Alcotest.run "nd_core"
    [
      ("pedigree", [ Alcotest.test_case "basics" `Quick test_pedigree ]);
      ("strand", [ Alcotest.test_case "basics" `Quick test_strand ]);
      ( "spawn_tree",
        [
          Alcotest.test_case "shape" `Quick test_tree_shape;
          Alcotest.test_case "child/resolve" `Quick test_tree_child_resolve;
          Alcotest.test_case "projections" `Quick test_projections;
          Alcotest.test_case "NP span fold: every family" `Quick test_np_span_families;
        ] );
      ( "fire_rule",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "merge" `Quick test_registry_merge;
        ] );
      ( "drs",
        [
          Alcotest.test_case "MAIN/F/G span (paper fig 3-4)" `Quick
            test_main_fg_span;
          Alcotest.test_case "MAIN/F/G edges" `Quick test_main_fg_edges;
          Alcotest.test_case "undefined rule" `Quick test_undefined_rule_rejected;
          Alcotest.test_case "empty rules = parallel" `Quick
            test_empty_rules_is_parallel;
          Alcotest.test_case "leaf-level fire = full" `Quick test_leaf_fire_full;
          Alcotest.test_case "recursive rule" `Quick test_recursive_rule;
          Alcotest.test_case "no-progress fallback" `Quick
            test_no_progress_falls_back_to_full;
          QCheck_alcotest.to_alcotest test_dag_acyclic_property;
          Alcotest.test_case "compile identity: recorded digests" `Quick
            test_compile_identity;
          QCheck_alcotest.to_alcotest prop_drs_matches_reference;
          Alcotest.test_case "compile keeps its rule tallies: every family" `Quick
            test_rule_uses_families;
        ] );
      ( "rule_check",
        [
          Alcotest.test_case "clean program" `Quick test_rule_check_clean;
          Alcotest.test_case "missing rule located" `Quick
            test_rule_check_finds_missing_rule;
          Alcotest.test_case "pedigree_from/lca" `Quick test_pedigree_from;
        ] );
      ( "serial_exec",
        [ Alcotest.test_case "orders respect deps" `Quick test_serial_exec_orders ] );
      ( "program",
        [
          Alcotest.test_case "structure" `Quick test_program_structure;
          Alcotest.test_case "footprint/size" `Quick test_footprint_size;
          Alcotest.test_case "node sizes: every family" `Quick
            test_node_sizes_families;
          QCheck_alcotest.to_alcotest prop_node_sizes_generated;
          Alcotest.test_case "post-order vertices: every family" `Quick
            test_vertex_order_families;
          QCheck_alcotest.to_alcotest prop_vertex_order_generated;
          Alcotest.test_case "decompose" `Quick test_decompose;
          Alcotest.test_case "decompose invalid" `Quick test_decompose_invalid;
          Alcotest.test_case "cuts and contractions: every family" `Quick
            test_cuts_families;
          QCheck_alcotest.to_alcotest prop_cuts_generated;
          Alcotest.test_case "cuts nest: every family" `Quick test_nesting_families;
          QCheck_alcotest.to_alcotest prop_nesting_generated;
          Alcotest.test_case "compile rejects an empty Seq or Par" `Quick test_compile_empty;
          Alcotest.test_case "packed shape" `Quick test_packed_shape;
          Alcotest.test_case "compile allocation" `Quick test_compile_alloc;
        ] );
    ]
