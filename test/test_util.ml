module Is = Nd_util.Interval_set
module Stats = Nd_util.Stats
module Prng = Nd_util.Prng

let check_is msg expected actual =
  Alcotest.(check (list (pair int int))) msg expected (Is.intervals actual)

(* ------------------------- interval sets ------------------------- *)

let test_interval_basic () =
  check_is "single" [ (3, 7) ] (Is.interval 3 7);
  check_is "empty" [] (Is.interval 5 5);
  Alcotest.(check bool) "is_empty" true (Is.is_empty Is.empty);
  Alcotest.check_raises "lo>hi" (Invalid_argument "Interval_set.interval: lo > hi")
    (fun () -> ignore (Is.interval 7 3))

let test_union () =
  let a = Is.of_intervals [ (0, 5); (10, 15) ] in
  let b = Is.of_intervals [ (3, 12); (20, 25) ] in
  check_is "overlapping union" [ (0, 15); (20, 25) ] (Is.union a b);
  check_is "adjacent coalesce" [ (0, 10) ]
    (Is.union (Is.interval 0 5) (Is.interval 5 10));
  check_is "union empty left" [ (1, 2) ] (Is.union Is.empty (Is.interval 1 2));
  check_is "union empty right" [ (1, 2) ] (Is.union (Is.interval 1 2) Is.empty)

let test_inter () =
  let a = Is.of_intervals [ (0, 10); (20, 30) ] in
  let b = Is.of_intervals [ (5, 25) ] in
  check_is "inter" [ (5, 10); (20, 25) ] (Is.inter a b);
  check_is "inter disjoint" [] (Is.inter (Is.interval 0 5) (Is.interval 5 10))

let test_diff () =
  let a = Is.of_intervals [ (0, 10) ] in
  let b = Is.of_intervals [ (3, 5); (7, 20) ] in
  check_is "diff splits" [ (0, 3); (5, 7) ] (Is.diff a b);
  check_is "diff of empty" [] (Is.diff Is.empty a);
  check_is "diff by empty" [ (0, 10) ] (Is.diff a Is.empty)

let test_cardinal_mem () =
  let a = Is.of_intervals [ (0, 3); (10, 14) ] in
  Alcotest.(check int) "cardinal" 7 (Is.cardinal a);
  Alcotest.(check bool) "mem 2" true (Is.mem 2 a);
  Alcotest.(check bool) "mem 3" false (Is.mem 3 a);
  Alcotest.(check bool) "mem 13" true (Is.mem 13 a)

let test_overlaps () =
  let a = Is.of_intervals [ (0, 5); (10, 15) ] in
  Alcotest.(check bool) "yes" true (Is.overlaps a (Is.interval 14 20));
  Alcotest.(check bool) "no" false (Is.overlaps a (Is.interval 5 10));
  Alcotest.(check bool) "empty" false (Is.overlaps a Is.empty)

let test_absorb () =
  let acc = ref (Is.interval 0 10) in
  let n1 = Is.absorb acc (Is.of_intervals [ (5, 15) ]) in
  Alcotest.(check int) "first absorb" 5 n1;
  let n2 = Is.absorb acc (Is.of_intervals [ (5, 15) ]) in
  Alcotest.(check int) "second absorb is free" 0 n2;
  Alcotest.(check int) "acc grew" 15 (Is.cardinal !acc)

let test_normalize_random () =
  (* union of random fragments equals the set built by of_intervals *)
  let rng = Prng.create 42 in
  for _ = 1 to 50 do
    let frags =
      List.init 20 (fun _ ->
          let lo = Prng.int rng 100 in
          (lo, lo + Prng.int rng 10))
    in
    let whole = Is.of_intervals frags in
    let incremental =
      List.fold_left
        (fun acc (lo, hi) -> Is.union acc (Is.interval lo hi))
        Is.empty frags
    in
    Alcotest.(check bool) "agree" true (Is.equal whole incremental);
    (* membership agrees with the fragment definition *)
    for x = 0 to 110 do
      let expect = List.exists (fun (lo, hi) -> lo <= x && x < hi) frags in
      if expect <> Is.mem x whole then Alcotest.fail "membership mismatch"
    done
  done

(* qcheck properties *)

let gen_set =
  QCheck2.Gen.(
    map
      (fun l -> Is.of_intervals (List.map (fun (a, b) -> (a, a + b)) l))
      (small_list (pair (int_bound 200) (int_bound 20))))

let prop_union_cardinal =
  QCheck2.Test.make ~name:"|a ∪ b| = |a| + |b| - |a ∩ b|" ~count:200
    QCheck2.Gen.(pair gen_set gen_set)
    (fun (a, b) ->
      Is.cardinal (Is.union a b)
      = Is.cardinal a + Is.cardinal b - Is.cardinal (Is.inter a b))

let prop_diff_partition =
  QCheck2.Test.make ~name:"a = (a-b) ⊎ (a∩b)" ~count:200
    QCheck2.Gen.(pair gen_set gen_set)
    (fun (a, b) ->
      Is.equal a (Is.union (Is.diff a b) (Is.inter a b))
      && Is.is_empty (Is.inter (Is.diff a b) b))

let prop_overlaps_consistent =
  QCheck2.Test.make ~name:"overlaps a b <=> inter nonempty" ~count:200
    QCheck2.Gen.(pair gen_set gen_set)
    (fun (a, b) -> Is.overlaps a b = not (Is.is_empty (Is.inter a b)))

(* Differential test against the list representation the packed sets
   replaced (test/interval_set_ref.ml): every exported operation, on
   piece lists that overlap, touch, come unsorted, are empty or reversed
   and reach negative addresses.  Each set result must list the same
   intervals as the reference and be canonical. *)

module Ref = Interval_set_ref

let stress_iters =
  match Sys.getenv_opt "NDSIM_STRESS_ITERS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 3)
  | None -> 3

(* the rows of a strided block: [count] pieces of [width] at [stride] *)
let block_rows (lo, width, stride, count) =
  List.init count (fun i -> (lo + (i * stride), lo + (i * stride) + width))

(* Blocks small and large: [gap] 0 makes the rows touch, and up to 160
   rows lets two operands outgrow the 256 words under which a binary
   operation copies run operands to plain arrays. *)
let gen_block =
  QCheck2.Gen.(
    map
      (fun (lo, width, gap, count) -> (lo, width, width + gap, count))
      (quad (int_range (-60) 60) (int_range 1 6) (int_range 0 6)
         (oneof [ int_range 0 12; int_range 0 160 ])))

let gen_pieces =
  QCheck2.Gen.(
    oneof
      [
        return [];
        map block_rows gen_block;
        (* a union of blocks, with some scattered pieces *)
        map
          (fun (bs, extra) -> List.concat_map block_rows bs @ extra)
          (pair
             (list_size (int_range 2 3) gen_block)
             (small_list (pair (int_range (-60) 60) (int_range 1 12)
                          |> map (fun (lo, d) -> (lo, lo + d)))));
        (* scattered: overlapping, unsorted, some empty or reversed *)
        map
          (List.map (fun (lo, d) -> (lo, lo + d)))
          (small_list (pair (int_range (-60) 60) (int_range (-3) 12)));
        (* a run of touching pieces, listed backwards *)
        map
          (fun (start, lens) ->
            snd
              (List.fold_left
                 (fun (x, acc) d -> (x + d, (x, x + d) :: acc))
                 (start, []) lens))
          (pair (int_range (-40) 40) (small_list (int_range 0 6)));
      ])

let rec canonical = function
  | (lo, hi) :: ((lo', _) :: _ as rest) -> lo < hi && hi < lo' && canonical rest
  | [ (lo, hi) ] -> lo < hi
  | [] -> true

(* Every set must also be in its one canonical layout: rebuilt from its
   intervals, it is the same array. *)
let same_set what packed reference =
  let got = Is.intervals packed and want = Ref.intervals reference in
  if not (canonical got) then
    QCheck2.Test.fail_reportf "%s: not canonical: %a" what Is.pp packed;
  if Stdlib.( <> ) (Is.of_intervals got) packed then
    QCheck2.Test.fail_reportf "%s: not in its canonical layout: %a" what Is.pp packed;
  if got <> want then
    QCheck2.Test.fail_reportf "%s: %a, reference %a" what Is.pp packed Ref.pp
      reference;
  true

let same what pp got want =
  if got <> want then
    QCheck2.Test.fail_reportf "%s: %a, reference %a" what pp got pp want;
  true

let prop_matches_reference =
  QCheck2.Test.make ~name:"packed sets = list reference"
    ~count:(min 100_000 (max 1000 (100 * stress_iters)))
    ~print:
      QCheck2.Print.(
        quad
          (list (pair int int))
          (list (pair int int))
          (pair int int) int)
    QCheck2.Gen.(
      quad gen_pieces gen_pieces
        (pair (int_range (-70) 80) (int_range (-3) 12))
        (int_range (-50) 50))
    (fun (l1, l2, (x, len), d) ->
      let a = Is.of_intervals l1 and ra = Ref.of_intervals l1 in
      let b = Is.of_intervals l2 and rb = Ref.of_intervals l2 in
      let int = Format.pp_print_int and bool = Format.pp_print_bool in
      let pairs =
        Format.pp_print_list (fun ppf (lo, hi) ->
            Format.fprintf ppf "[%d,%d)" lo hi)
      in
      let folded t =
        List.rev (Is.fold (fun lo hi acc -> (lo, hi) :: acc) t [])
      in
      let iterated t =
        let l = ref [] in
        Is.iter (fun lo hi -> l := (lo, hi) :: !l) t;
        List.rev !l
      in
      let absorbed () =
        (* absorb b's pieces into a one at a time, then b whole: fresh
           counts and the accumulator after each step *)
        let acc = ref a and racc = ref ra in
        List.for_all
          (fun (lo, hi) ->
            let p = Is.of_intervals [ (lo, hi) ]
            and rp = Ref.of_intervals [ (lo, hi) ] in
            same "absorb count" int (Is.absorb acc p) (Ref.absorb racc rp)
            && same_set "absorb acc" !acc !racc)
          l2
        && same "absorb whole" int (Is.absorb acc b) (Ref.absorb racc rb)
        && same_set "absorb whole acc" !acc !racc
      in
      same_set "of_intervals a" a ra
      && same_set "of_intervals b" b rb
      && same_set "empty" Is.empty Ref.empty
      && (if len >= 0 then
            same_set "interval" (Is.interval x (x + len))
              (Ref.interval x (x + len))
          else
            let raised f =
              match f () with
              | () -> None
              | exception Invalid_argument m -> Some m
            in
            same "interval raises"
              (Format.pp_print_option Format.pp_print_string)
              (raised (fun () -> ignore (Is.interval x (x + len))))
              (raised (fun () -> ignore (Ref.interval x (x + len)))))
      && same_set "shift" (Is.shift a d) (Ref.shift ra d)
      && same_set "union" (Is.union a b) (Ref.union ra rb)
      && same_set "inter" (Is.inter a b) (Ref.inter ra rb)
      && same_set "diff a b" (Is.diff a b) (Ref.diff ra rb)
      && same_set "diff b a" (Is.diff b a) (Ref.diff rb ra)
      && same "is_empty" bool (Is.is_empty a) (Ref.is_empty ra)
      && same "cardinal" int (Is.cardinal a) (Ref.cardinal ra)
      && same "equal" bool (Is.equal a b) (Ref.equal ra rb)
      && same "equal copy" bool
           (Is.equal a (Is.of_intervals (Is.intervals a)))
           true
      && same "overlaps" bool (Is.overlaps a b) (Ref.overlaps ra rb)
      && List.for_all
           (fun y -> same "mem" bool (Is.mem y a) (Ref.mem y ra))
           (List.init 281 (fun i -> i - 80)
           @ List.concat_map
               (fun (lo, hi) -> [ lo - 1; lo; hi - 1; hi ])
               (Ref.intervals ra))
      && same "fold" pairs (folded a) (Ref.intervals ra)
      && same "iter" pairs (iterated a) (Ref.intervals ra)
      && same "pp" Format.pp_print_string
           (Format.asprintf "%a" Is.pp a)
           (Format.asprintf "%a" Ref.pp ra)
      && absorbed ())

let prop_strided =
  QCheck2.Test.make ~name:"strided = of_intervals of its rows" ~count:1000
    ~print:QCheck2.Print.(quad int int int int)
    QCheck2.Gen.(
      quad (int_range (-50) 50) (int_range (-1) 6) (int_range (-1) 10)
        (int_range (-1) 12))
    (fun (lo, width, stride, count) ->
      match Is.strided ~lo ~width ~stride ~count with
      | s ->
        width >= 0 && count >= 0 && stride >= width
        && Stdlib.( = ) s (Is.of_intervals (block_rows (lo, width, stride, count)))
      | exception Invalid_argument _ -> width < 0 || count < 0 || stride < width)

(* The binary operations keep no state between calls: unions computed
   by two domains, and by two threads of one domain, at once equal the
   serial results, on operands on both sides of the 256-word copy
   threshold. *)
let test_concurrent_unions () =
  let sets =
    List.concat_map
      (fun count ->
        [
          Is.strided ~lo:0 ~width:3 ~stride:8 ~count;
          Is.strided ~lo:5 ~width:2 ~stride:7 ~count;
          Is.of_intervals [ (1, 4); (30, 31); (55, 90) ];
        ])
      [ 4; 40; 150 ]
  in
  let pairs = List.concat_map (fun a -> List.map (fun b -> (a, b)) sets) sets in
  let ops a b = [ Is.union a b; Is.inter a b; Is.diff a b ] in
  let serial = List.map (fun (a, b) -> ops a b) pairs in
  let agree () =
    let ok = ref true in
    for _ = 1 to 200 do
      if List.map (fun (a, b) -> ops a b) pairs <> serial then ok := false
    done;
    !ok
  in
  let d1 = Domain.spawn agree and d2 = Domain.spawn agree in
  Alcotest.(check bool) "domain 1" true (Domain.join d1);
  Alcotest.(check bool) "domain 2" true (Domain.join d2);
  let res = Array.make 2 false in
  let ts = List.init 2 (fun i -> Thread.create (fun () -> res.(i) <- agree ()) ()) in
  List.iter Thread.join ts;
  Alcotest.(check (array bool)) "threads" [| true; true |] res

(* A leaf's footprint keeps each b×b block as one run: at most 24 words
   a leaf (reads plus writes), where a row-per-interval layout takes 66
   on mm and 72 on lcs. *)
let test_footprint_words () =
  let open Nd_algos in
  List.iter
    (fun (name, w) ->
      let words = ref 0 and leaves = ref 0 in
      let rec go = function
        | Nd.Spawn_tree.Leaf s ->
          incr leaves;
          words :=
            !words + Obj.reachable_words (Obj.repr s.Nd.Strand.reads)
            + Obj.reachable_words (Obj.repr s.Nd.Strand.writes)
        | Nd.Spawn_tree.Seq l | Nd.Spawn_tree.Par l -> List.iter go l
        | Nd.Spawn_tree.Fire { src; snk; _ } -> go src; go snk
      in
      go w.Workload.tree;
      let per_leaf = float_of_int !words /. float_of_int !leaves in
      if per_leaf > 24. then Alcotest.failf "%s: %.1f words a leaf" name per_leaf)
    [
      ("mm n=32 b=8", Matmul.workload ~n:32 ~base:8 ~seed:1 ());
      ("lcs n=128 b=16", Lcs.workload ~n:128 ~base:16 ~seed:1 ());
    ]

(* --------------------------- statistics --------------------------- *)

let test_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2. (Stats.mean [ 1.; 2.; 3. ])

let test_power_fit () =
  let xs = [ 2.; 4.; 8.; 16.; 32. ] in
  let ys = List.map (fun x -> 5. *. (x ** 1.5)) xs in
  let e, c, r2 = Stats.power_fit xs ys in
  Alcotest.(check (float 1e-6)) "exponent" 1.5 e;
  Alcotest.(check (float 1e-6)) "constant" 5. c;
  Alcotest.(check (float 1e-6)) "r2" 1. r2

let test_spread () =
  Alcotest.(check (float 1e-9)) "flat" 1. (Stats.spread [ 2.; 2.; 2. ]);
  Alcotest.(check (float 1e-9)) "max over min" 4. (Stats.spread [ 2.; 8.; 4. ])

(* ----------------------------- prng ------------------------------ *)

let test_prng_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_bounds () =
  let rng = Prng.create 11 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds";
    let f = Prng.float rng in
    if f < 0. || f >= 1. then Alcotest.fail "float out of bounds"
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound <= 0")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_split () =
  let rng = Prng.create 3 in
  let child = Prng.split rng in
  (* parent and child produce different streams *)
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.next rng = Prng.next child then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_prng_uniformity () =
  let rng = Prng.create 99 in
  let buckets = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let b = Prng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      if abs (c - (n / 10)) > n / 20 then Alcotest.fail "bucket far from uniform")
    buckets

(* ----------------------------- heap ------------------------------ *)

module Heap = Nd_util.Heap

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (10 * k)) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "length" 5 (Heap.length h);
  let keys = List.init 5 (fun _ -> fst (Heap.pop h)) in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 3; 4; 5 ] keys;
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  (match Heap.pop h with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "pop of empty")

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 7 v) [ 1; 2; 3 ];
  let vals = List.init 3 (fun _ -> snd (Heap.pop h)) in
  Alcotest.(check (list int)) "FIFO on equal keys" [ 1; 2; 3 ] vals

(* Regression for the heap space leak: popped entries used to survive in
   vacated array slots (pop moved the last entry to the root without
   clearing its old slot, and growth seeded fresh slots from a live
   entry), pinning every value a long-lived scheduler heap had ever
   carried.  Track popped values through a weak array: after a major GC
   they must all be collectable even while the heap itself stays live. *)
let test_heap_no_leak_drained () =
  let h = Heap.create () in
  let n = 40 in
  (* > the initial capacity of 16, so the growth path runs too *)
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let v = ref (2 * i) in
    Weak.set w i (Some v);
    Heap.push h i v
  done;
  while not (Heap.is_empty h) do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check w i then incr live
  done;
  (* the heap (and its backing array) is reachable across the check *)
  ignore (Sys.opaque_identity h);
  Alcotest.(check int) "popped values pinned by a drained heap" 0 !live

let test_heap_no_leak_partial () =
  let h = Heap.create () in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    let v = ref i in
    Weak.set w i (Some v);
    Heap.push h i v
  done;
  (* survivors with larger keys keep the heap non-empty *)
  for i = 0 to 7 do
    Heap.push h (100 + i) (ref (-1))
  done;
  for _ = 0 to 7 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to 7 do
    if Weak.check w i then incr live
  done;
  Alcotest.(check int) "survivors retained" 8 (Heap.length h);
  ignore (Sys.opaque_identity h);
  Alcotest.(check int) "popped values pinned by a live heap" 0 !live

let test_heap_random () =
  let rng = Prng.create 77 in
  let h = Heap.create () in
  let reference = ref [] in
  for _ = 1 to 500 do
    let k = Prng.int rng 100 in
    Heap.push h k k;
    reference := k :: !reference
  done;
  let sorted = List.sort compare !reference in
  let popped = List.init 500 (fun _ -> fst (Heap.pop h)) in
  Alcotest.(check (list int)) "heapsort" sorted popped

(* ----------------------------- json ------------------------------ *)

module Json = Nd_util.Json

(* UTF-8 encoder for building expected strings from code points *)
let utf8_string cps =
  let b = Buffer.create 16 in
  List.iter
    (fun cp ->
      if cp < 0x80 then Buffer.add_char b (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
      end
      else if cp < 0x10000 then begin
        Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xf0 lor (cp lsr 18)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
      end)
    cps;
  Buffer.contents b

let test_json_surrogate_decode () =
  (* U+1F600 as a high/low pair -> one 4-byte UTF-8 character *)
  Alcotest.(check string) "astral pair" (utf8_string [ 0x1f600 ])
    (Json.to_string_exn (Json.parse "\"\\ud83d\\ude00\""));
  Alcotest.(check string) "BMP escape" (utf8_string [ 0x4e2d ])
    (Json.to_string_exn (Json.parse "\"\\u4e2d\""));
  Alcotest.(check string) "pair after text" (utf8_string [ 0x61; 0x10000 ])
    (Json.to_string_exn (Json.parse "\"a\\ud800\\udc00\""));
  (* RFC 8259 section 7: an unpaired surrogate is malformed *)
  List.iter
    (fun s ->
      match Json.parse s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted unpaired surrogate in %s" s)
    [
      "\"\\ud83d\"";
      "\"\\ude00\"";
      "\"\\ud83dx\"";
      "\"\\ud83d\\u0041\"";
      "\"\\ud83d\\ud83d\\ude00\"";
    ]

(* valid Unicode scalar values, surrogate range excluded by construction *)
let gen_unicode_string =
  QCheck2.Gen.(
    let cp =
      oneof
        [
          int_range 0x20 0x7e;
          int_range 0xa0 0xd7ff;
          int_range 0xe000 0xfffd;
          int_range 0x10000 0x10ffff;
        ]
    in
    map utf8_string (small_list cp))

let prop_json_unicode_roundtrip =
  QCheck2.Test.make ~name:"json: parse (to_string s) = s" ~count:300
    gen_unicode_string (fun s ->
      let v = Json.String s in
      Json.parse (Json.to_string v) = v)

(* ---------------------------- int_set ----------------------------- *)

module Int_set = Nd_util.Int_set

let test_int_set_edges () =
  let s = Int_set.create 0 in
  Alcotest.(check bool) "0 absent" false (Int_set.mem s 0);
  Alcotest.(check bool) "add 0" true (Int_set.add s 0);
  Alcotest.(check bool) "add 0 again" false (Int_set.add s 0);
  Alcotest.(check bool) "add max_int" true (Int_set.add s max_int);
  Alcotest.(check bool) "max_int member" true (Int_set.mem s max_int);
  Alcotest.(check bool) "max_int - 1 absent" false (Int_set.mem s (max_int - 1));
  Alcotest.(check int) "cardinal" 2 (Int_set.cardinal s);
  Alcotest.check_raises "negative add" (Invalid_argument "Int_set: negative key")
    (fun () -> ignore (Int_set.add s (-1)));
  Alcotest.check_raises "negative mem" (Invalid_argument "Int_set: negative key")
    (fun () -> ignore (Int_set.mem s min_int))

let test_int_set_growth () =
  (* from the minimum table through 14 doublings *)
  let s = Int_set.create 0 and n = 100_000 in
  for i = 0 to n - 1 do
    if not (Int_set.add s (i * 7919)) then Alcotest.failf "%d reported present" i
  done;
  Alcotest.(check int) "cardinal" n (Int_set.cardinal s);
  for i = 0 to n - 1 do
    if not (Int_set.mem s (i * 7919)) then Alcotest.failf "%d lost" i;
    if Int_set.mem s ((i * 7919) + 1) then Alcotest.failf "%d + 1 invented" i
  done

(* small keys (0 included), packed keys near max_int, packed pairs the
   way the DRS compiler builds them, and anything non-negative *)
let gen_int_set_key =
  QCheck2.Gen.(
    oneof
      [
        int_range 0 64;
        map (fun d -> max_int - d) (int_range 0 64);
        map (fun (a, b) -> (a * 4001) + b) (pair (int_range 0 4000) (int_range 0 4000));
        map (fun x -> x land max_int) int;
      ])

let prop_int_set_model =
  QCheck2.Test.make ~name:"int_set agrees with a Hashtbl model" ~count:200
    QCheck2.Gen.(
      pair (int_range 0 64)
        (list_size (int_range 0 3000) (pair bool gen_int_set_key)))
    (fun (hint, ops) ->
      let s = Int_set.create hint and model = Hashtbl.create 16 in
      List.for_all
        (fun (is_add, k) ->
          if is_add then begin
            let fresh = not (Hashtbl.mem model k) in
            Hashtbl.replace model k ();
            Int_set.add s k = fresh
          end
          else Int_set.mem s k = Hashtbl.mem model k)
        ops
      && Int_set.cardinal s = Hashtbl.length model
      && Hashtbl.fold (fun k () ok -> ok && Int_set.mem s k) model true)

(* ----------------------------- table ----------------------------- *)

let test_table () =
  let t = Nd_util.Table.create ~title:"demo" [ "a"; "bb" ] in
  Nd_util.Table.add_row t [ "1"; "2"; "3" ];
  Nd_util.Table.add_row t [ "x" ];
  let s = Nd_util.Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 7 = "== demo");
  (* all rendered rows share the same width *)
  let lines = String.split_on_char '\n' s in
  let widths =
    List.filter_map
      (fun l -> if String.length l > 0 then Some (String.length l) else None)
      (List.tl lines)
  in
  match widths with
  | [] -> Alcotest.fail "no lines"
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "aligned" w w') rest

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_union_cardinal; prop_diff_partition; prop_overlaps_consistent ]
  in
  let json_qsuite =
    List.map QCheck_alcotest.to_alcotest [ prop_json_unicode_roundtrip ]
  in
  Alcotest.run "nd_util"
    [
      ( "interval_set",
        [
          Alcotest.test_case "basic" `Quick test_interval_basic;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "inter" `Quick test_inter;
          Alcotest.test_case "diff" `Quick test_diff;
          Alcotest.test_case "cardinal/mem" `Quick test_cardinal_mem;
          Alcotest.test_case "overlaps" `Quick test_overlaps;
          Alcotest.test_case "absorb" `Quick test_absorb;
          Alcotest.test_case "randomized agreement" `Quick test_normalize_random;
        ] );
      ("interval_set.properties", qsuite);
      ( "interval_set.reference",
        [ QCheck_alcotest.to_alcotest prop_matches_reference ] );
      ( "interval_set.runs",
        [
          QCheck_alcotest.to_alcotest prop_strided;
          Alcotest.test_case "concurrent unions" `Quick test_concurrent_unions;
          Alcotest.test_case "footprint words a leaf" `Quick test_footprint_words;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "power_fit" `Quick test_power_fit;
          Alcotest.test_case "spread" `Quick test_spread;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "split" `Quick test_prng_split;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_order;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "no leak when drained" `Quick
            test_heap_no_leak_drained;
          Alcotest.test_case "no leak while live" `Quick
            test_heap_no_leak_partial;
          Alcotest.test_case "randomized heapsort" `Quick test_heap_random;
        ] );
      ( "json",
        Alcotest.test_case "surrogate decode" `Quick test_json_surrogate_decode
        :: json_qsuite );
      ( "int_set",
        [
          Alcotest.test_case "key 0, max_int, negatives" `Quick
            test_int_set_edges;
          Alcotest.test_case "growth past many doublings" `Quick
            test_int_set_growth;
          QCheck_alcotest.to_alcotest prop_int_set_model;
        ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table ]);
    ]
