module Is = Nd_util.Interval_set
module Pmh = Nd_pmh.Pmh

module Trace = struct
  (* SoA: parallel proc/footprint arrays, doubling growth.  One entry
     per leaf strand executed, in simulation event order. *)
  type t = {
    mutable procs : int array;
    mutable fps : Is.t array;
    mutable len : int;
  }

  let create () = { procs = Array.make 256 0; fps = Array.make 256 Is.empty; len = 0 }

  let length t = t.len

  let push t ~proc fp =
    if t.len >= Array.length t.procs then begin
      let cap = 2 * Array.length t.procs in
      let procs = Array.make cap 0 and fps = Array.make cap Is.empty in
      Array.blit t.procs 0 procs 0 t.len;
      Array.blit t.fps 0 fps 0 t.len;
      t.procs <- procs;
      t.fps <- fps
    end;
    t.procs.(t.len) <- proc;
    t.fps.(t.len) <- fp;
    t.len <- t.len + 1

  let proc t i = t.procs.(i)

  let footprint t i = t.fps.(i)
end

let machine_caches machine =
  Array.init (Pmh.n_levels machine) (fun i ->
      Pmh.n_caches machine ~level:(i + 1))

(* Each shard owns a disjoint set of (level, cache) pairs and scans the
   whole trace once with private simulators: caches at different levels
   and disjoint same-level caches evolve independently (DESIGN.md §13.2),
   and each cache sees exactly the per-cache subsequence of the global
   trace order, so the counts do not depend on how the pairs are split:
   one shard holding every pair gives the same table as any partition. *)
let run_shard ~machine trace pairs =
  let h = Pmh.n_levels machine in
  let n_caches = machine_caches machine in
  let sims = Array.init h (fun i -> Array.make n_caches.(i) None) in
  Array.iter
    (fun (level, cache) ->
      sims.(level - 1).(cache) <-
        Some (Cache_sim.create ~m:(Pmh.size machine ~level) ()))
    pairs;
  let levels =
    Array.of_list
      (List.filter
         (fun j -> Array.exists (fun s -> s <> None) sims.(j - 1))
         (List.init h (fun i -> i + 1)))
  in
  for k = 0 to Trace.length trace - 1 do
    let proc = Trace.proc trace k and fp = Trace.footprint trace k in
    Array.iter
      (fun j ->
        let c = Pmh.cache_of_proc machine ~proc ~level:j in
        match sims.(j - 1).(c) with
        | Some sim -> ignore (Cache_sim.access_set sim fp)
        | None -> ())
      levels
  done;
  let table = Miss_table.create ~n_caches in
  Array.iter
    (fun (level, cache) ->
      match sims.(level - 1).(cache) with
      | Some sim -> Miss_table.add table ~level ~cache (Cache_sim.misses sim)
      | None -> assert false)
    pairs;
  table

let replay ~workers ~machine trace =
  let shards = Pmh.shard_pairs machine ~shards:(max 1 workers) in
  let tables = Array.make (Array.length shards) None in
  Nd_runtime.Executor.parallel_for ~workers (Array.length shards) (fun _wid s ->
      tables.(s) <- Some (run_shard ~machine trace shards.(s)));
  let into = Miss_table.create ~n_caches:(machine_caches machine) in
  Array.iteri
    (fun s t ->
      match t with
      | Some t -> Miss_table.merge_exclusive ~into ~claims:shards.(s) t
      | None -> invalid_arg "Shard_sim.replay: lost shard")
    tables;
  Miss_table.assert_complete into;
  into
