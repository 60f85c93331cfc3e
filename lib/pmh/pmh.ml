type level = { size : int; fanout : int; miss_cost : int }

type t = { caches : level array; root_fanout : int }

let create ~root_fanout levels =
  let caches = Array.of_list levels in
  if Array.length caches = 0 then invalid_arg "Pmh.create: no cache levels";
  if root_fanout < 1 then invalid_arg "Pmh.create: root_fanout < 1";
  Array.iteri
    (fun i l ->
      if l.size < 1 || l.fanout < 1 || l.miss_cost < 0 then
        invalid_arg "Pmh.create: non-positive level parameter";
      if i > 0 && l.size <= caches.(i - 1).size then
        invalid_arg "Pmh.create: cache sizes must strictly increase")
    caches;
  { caches; root_fanout }

let n_levels t = Array.length t.caches

let check_level t level =
  if level < 1 || level > n_levels t then invalid_arg "Pmh: bad level"

let n_procs t =
  t.root_fanout * Array.fold_left (fun acc l -> acc * l.fanout) 1 t.caches

let n_caches t ~level =
  check_level t level;
  let acc = ref t.root_fanout in
  for i = n_levels t - 1 downto level do
    acc := !acc * t.caches.(i).fanout
  done;
  !acc

let size t ~level =
  check_level t level;
  t.caches.(level - 1).size

let miss_cost t ~level =
  check_level t level;
  t.caches.(level - 1).miss_cost

let fanout t ~level =
  check_level t level;
  t.caches.(level - 1).fanout

let cum_miss_cost t ~level =
  if level < 1 || level > n_levels t + 1 then invalid_arg "Pmh: bad level";
  let acc = ref 0 in
  for i = 1 to level - 1 do
    acc := !acc + t.caches.(i - 1).miss_cost
  done;
  !acc

(* processors under one level-i cache *)
let procs_per_cache t level =
  let acc = ref 1 in
  for i = 0 to level - 1 do
    acc := !acc * t.caches.(i).fanout
  done;
  !acc

let cache_of_proc t ~proc ~level =
  check_level t level;
  if proc < 0 || proc >= n_procs t then invalid_arg "Pmh: bad proc";
  proc / procs_per_cache t level

let procs_under t ~level ~cache =
  check_level t level;
  let per = procs_per_cache t level in
  if cache < 0 || cache >= n_caches t ~level then invalid_arg "Pmh: bad cache";
  (cache * per, ((cache + 1) * per) - 1)

let shard_pairs t ~shards =
  if shards < 1 then invalid_arg "Pmh.shard_pairs: shards < 1";
  (* weight of a (level, cache) pair = processors under the cache: a
     uniform access stream touches every level once per access, split
     across that level's instances in proportion to the leaves below
     each one, so [procs_per_cache] is the pair's expected trace share
     (in units of one access) *)
  let pairs = ref [] in
  for level = n_levels t downto 1 do
    for cache = n_caches t ~level - 1 downto 0 do
      pairs := (procs_per_cache t level, level, cache) :: !pairs
    done
  done;
  let pairs = Array.of_list !pairs in
  (* LPT: heaviest first; ties broken by (level, cache) ascending so the
     partition is a pure function of the machine shape *)
  Array.sort
    (fun (w1, l1, c1) (w2, l2, c2) ->
      if w1 <> w2 then compare w2 w1
      else if l1 <> l2 then compare l1 l2
      else compare c1 c2)
    pairs;
  let k = min shards (Array.length pairs) in
  let load = Array.make k 0 in
  let bins = Array.make k [] in
  Array.iter
    (fun (w, level, cache) ->
      let best = ref 0 in
      for b = 1 to k - 1 do
        if load.(b) < load.(!best) then best := b
      done;
      load.(!best) <- load.(!best) + w;
      bins.(!best) <- (level, cache) :: bins.(!best))
    pairs;
  Array.map
    (fun bin -> Array.of_list (List.sort compare bin))
    bins

let perfect_time t ~sigma ~q_star =
  let p = float_of_int (n_procs t) in
  let total = ref 0. in
  for level = 1 to n_levels t do
    let m = int_of_float (sigma *. float_of_int (size t ~level)) in
    let m = max 1 m in
    total :=
      !total
      +. (float_of_int (q_star m) *. float_of_int (miss_cost t ~level))
  done;
  !total /. p

let overhead_vh t ~alpha ~k =
  if k <= 0. || k >= 1. then invalid_arg "Pmh.overhead_vh: k not in (0,1)";
  let alpha' = Float.min alpha 1. in
  let acc = ref 2. in
  for j = 2 to n_levels t do
    let f = float_of_int (fanout t ~level:j) in
    let ratio =
      float_of_int (size t ~level:j) /. float_of_int (size t ~level:(j - 1))
    in
    acc := !acc *. ((1. /. k) +. (f /. ((1. -. k) *. (ratio ** alpha'))))
  done;
  !acc

let describe t =
  let parts =
    Array.to_list
      (Array.mapi
         (fun i l ->
           Printf.sprintf "L%d(M=%d,f=%d,C=%d)" (i + 1) l.size l.fanout
             l.miss_cost)
         t.caches)
  in
  Printf.sprintf "%s root_fanout=%d procs=%d" (String.concat " " parts)
    t.root_fanout (n_procs t)

let flat ~procs ~m ~miss_cost =
  create ~root_fanout:1 [ { size = m; fanout = procs; miss_cost } ]

let desktop () =
  create ~root_fanout:1
    [
      { size = 1 lsl 10; fanout = 1; miss_cost = 2 };
      { size = 1 lsl 13; fanout = 4; miss_cost = 8 };
      { size = 1 lsl 16; fanout = 4; miss_cost = 32 };
    ]

let standard ~top =
  create ~root_fanout:top
    [
      { size = 64; fanout = 1; miss_cost = 2 };
      { size = 512; fanout = 4; miss_cost = 8 };
      { size = 4096; fanout = 4; miss_cost = 32 };
    ]

let server () =
  create ~root_fanout:4
    [
      { size = 1 lsl 10; fanout = 1; miss_cost = 2 };
      { size = 1 lsl 13; fanout = 4; miss_cost = 8 };
      { size = 1 lsl 16; fanout = 4; miss_cost = 32 };
    ]

let scaled ~top_caches () =
  create ~root_fanout:top_caches
    [
      { size = 1 lsl 10; fanout = 1; miss_cost = 2 };
      { size = 1 lsl 13; fanout = 4; miss_cost = 8 };
      { size = 1 lsl 16; fanout = 4; miss_cost = 32 };
    ]
