module Pmh = Nd_pmh.Pmh

type t = {
  machine : Pmh.t;
  caches : Cache_sim.t array array;  (* caches.(j-1).(c): level-j cache c *)
  misses : int array;
  mutable miss_cost : int;
}

let create machine =
  let h = Pmh.n_levels machine in
  {
    machine;
    caches =
      Array.init h (fun i ->
          Array.init
            (Pmh.n_caches machine ~level:(i + 1))
            (fun _ -> Cache_sim.create ~m:(Pmh.size machine ~level:(i + 1)) ()));
    misses = Array.make h 0;
    miss_cost = 0;
  }

(* caches are independent, so batching the whole footprint per level
   sees the same per-cache access sequence (address order) as touching
   it word by word *)
let charge t ~proc fp =
  let cost = ref 0 in
  for j = 1 to Array.length t.caches do
    let c = Pmh.cache_of_proc t.machine ~proc ~level:j in
    let dm = Cache_sim.access_set t.caches.(j - 1).(c) fp in
    if dm > 0 then begin
      t.misses.(j - 1) <- t.misses.(j - 1) + dm;
      cost := !cost + (dm * Pmh.miss_cost t.machine ~level:j)
    end
  done;
  t.miss_cost <- t.miss_cost + !cost;
  !cost

let misses t = t.misses

let miss_cost t = t.miss_cost

let miss_table t = Miss_table.of_sims t.caches
