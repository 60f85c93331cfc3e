module Is = Nd_util.Interval_set
module Race = Nd_dag.Race
module Program = Nd.Program
module Rule_check = Nd.Rule_check
module Strand = Nd.Strand

(* ESP-bags: SP-bags extended to ⇝ fire edges.

   One serial-elision DFS of the spawn tree answers every "is the
   completed strand u ordered before the currently executing strand v?"
   query with two structures:

   - the classic SP part: a union-find of *bags* over completed leaves.
     Each internal node accumulates its completed children into one bag
     whose root is tagged S (Seq node: earlier children are serially
     before later ones) or P (Par/Fire node: children are structurally
     unordered).  A completed leaf is serially before the current leaf
     iff its bag root is tagged S.  Amortized inverse-Ackermann per
     query.

   - the fire extension: every non-structural edge the DRS adds is
     [end(a) -> begin(b)] for spawn-tree nodes a, b (Program.fire_src/fire_snk),
     i.e. "the contiguous DFS leaf interval of a precedes that of b".
     We maintain, per node n, interval sets over leaf indices:

       pre(n)  = leaves ordered before begin(n)
               = pre(parent) ∪ (posts of earlier Seq siblings)
                             ∪ (posts of fire-edge sources into n)
       post(n) = leaves ordered before end(n)
               = leaves(n) ∪ pre(n) ∪ ⋃_child post(c)

     Both recursions mirror the DAG's predecessor structure exactly, so
     pre(leaf v) is the *exact* happens-before set of v projected onto
     leaves — including chains that alternate fire and seq edges.  The
     sets stay compact because leaves(n) is a single interval that
     absorbs the whole subtree; only external fire sources contribute
     extra components.

   Shadow memory holds, per address, the last writer and an antichain of
   readers (readers not ordered among themselves); the standard
   SP-bags argument — extended here to arbitrary interval-closure
   orderings — shows that checking new accesses against just these
   suffices to report at least one race per racy location.  See
   DESIGN.md §9 for the full construction and the near-linearity
   argument. *)

type stats = {
  n_leaves : int;
  n_fire_edges : int;
  n_accesses : int;  (** shadow-memory updates performed *)
  n_queries : int;  (** ordering queries answered *)
  sp_hits : int;  (** queries settled by the S-bag fast path *)
}

type verdict = { races : Race.race list; stats : stats }

let leaf_strands program =
  Array.init (Program.n_leaves program) (fun i ->
      match Program.kind_of program (Program.leaf_node program i) with
      | Program.Leaf s -> s
      | Program.Seq | Program.Par | Program.Fire _ -> assert false)

(* one past the highest address any strand reads or writes *)
let max_address strands =
  let hi set acc = Is.fold (fun _ hi acc -> max acc hi) set acc in
  Array.fold_left
    (fun acc s -> hi s.Strand.reads (hi s.Strand.writes acc))
    0 strands

exception Done

let analyze ?(limit = 16) program =
  let n_nodes = Program.n_nodes program in
  let n_leaves = Program.n_leaves program in
  let strands = leaf_strands program in
  let fire_in = Array.make n_nodes [] in
  for i = 0 to Program.n_fire_edges program - 1 do
    let b = Program.fire_snk program i in
    fire_in.(b) <- Program.fire_src program i :: fire_in.(b)
  done;
  (* post.(n) is only valid once completed.(n); pre sets live on the DFS
     stack (one per active node) *)
  let post = Array.make n_nodes Is.empty in
  let completed = Array.make n_nodes false in
  (* union-find over leaf indices; [serial] is meaningful at roots only *)
  let parent = Array.init n_leaves (fun i -> i) in
  let rank = Array.make n_leaves 0 in
  let serial = Array.make n_leaves false in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      let r = find p in
      parent.(i) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra = rb then ra
    else if rank.(ra) < rank.(rb) then begin
      parent.(ra) <- rb;
      rb
    end
    else begin
      parent.(rb) <- ra;
      if rank.(ra) = rank.(rb) then rank.(ra) <- rank.(ra) + 1;
      ra
    end
  in
  (* accumulated bag per internal node: root leaf id, or -1 while empty *)
  let bag = Array.make n_nodes (-1) in
  let absorb_child node child_bag ~as_serial =
    let r =
      if bag.(node) < 0 then find child_bag else union bag.(node) child_bag
    in
    serial.(r) <- as_serial;
    bag.(node) <- r
  in
  (* shadow memory *)
  let size = max (max_address strands) 1 in
  let writer = Array.make size (-1) in
  let readers = Array.make size [] in
  let n_accesses = ref 0 and n_queries = ref 0 and sp_hits = ref 0 in
  let races = ref [] and n_races = ref 0 in
  let seen = Hashtbl.create 64 in
  let emit u cur =
    if not (Hashtbl.mem seen (u, cur)) then begin
      Hashtbl.add seen (u, cur) ();
      let su = strands.(u) and sc = strands.(cur) in
      let ww = Is.inter su.Strand.writes sc.Strand.writes in
      let rw =
        Is.union
          (Is.inter su.Strand.reads sc.Strand.writes)
          (Is.inter su.Strand.writes sc.Strand.reads)
      in
      let write_write = not (Is.is_empty ww) in
      races :=
        {
          Race.u = Program.leaf_vertex program u;
          v = Program.leaf_vertex program cur;
          overlap = (if write_write then ww else rw);
          write_write;
        }
        :: !races;
      incr n_races;
      if !n_races >= limit then raise Done
    end
  in
  (* per-strand memo for the ordering predicate: generation-stamped so
     it needs no clearing between strands (slot = gen * 2 + verdict) *)
  let memo = Array.make n_leaves (-1) in
  let generation = ref 0 in
  let touch me ~pre s =
    (* [pre] and the bag tags are fixed for the whole strand, so the
       ordering predicate is a pure function of the queried leaf here:
       memoize it — the same neighbours recur at every address of the
       footprint *)
    incr generation;
    let gen = !generation in
    let ordered u =
      let tag = memo.(u) in
      if tag lsr 1 = gen then tag land 1 = 1
      else begin
        incr n_queries;
        let b =
          if serial.(find u) then begin
            incr sp_hits;
            true
          end
          else Is.mem u pre
        in
        memo.(u) <- (gen * 2) + Bool.to_int b;
        b
      end
    in
    Is.iter
      (fun lo hi ->
        for a = lo to hi - 1 do
          incr n_accesses;
          let w = writer.(a) in
          if w >= 0 && w <> me && not (ordered w) then emit w me;
          (* keep the reader antichain: drop readers now ordered before
             [me]; any race they could still witness, [me] witnesses *)
          readers.(a) <-
            me :: List.filter (fun r -> r <> me && not (ordered r)) readers.(a)
        done)
      s.Strand.reads;
    Is.iter
      (fun lo hi ->
        for a = lo to hi - 1 do
          incr n_accesses;
          let w = writer.(a) in
          if w >= 0 && w <> me && not (ordered w) then emit w me;
          List.iter
            (fun r -> if r <> me && not (ordered r) then emit r me)
            readers.(a);
          writer.(a) <- me;
          readers.(a) <- []
        done)
      s.Strand.writes
  in
  let rec visit node ~pre =
    (* fold the fire edges targeting this node into its entry set *)
    let pre =
      List.fold_left
        (fun acc a ->
          if not completed.(a) then
            invalid_arg
              "Esp_bags: fire edge from an uncompleted subtree (cyclic DAG)";
          Is.union acc post.(a))
        pre fire_in.(node)
    in
    (match Program.kind_of program node with
    | Program.Leaf s ->
      let lo, _ = Program.leaf_range program node in
      touch lo ~pre s;
      bag.(node) <- lo
    | Program.Seq ->
      let running = ref pre in
      Array.iter
        (fun c ->
          visit c ~pre:!running;
          running := Is.union !running post.(c);
          absorb_child node bag.(c) ~as_serial:true)
        (Program.children program node)
    | Program.Par | Program.Fire _ ->
      Array.iter
        (fun c ->
          visit c ~pre;
          absorb_child node bag.(c) ~as_serial:false)
        (Program.children program node));
    let lo, hi = Program.leaf_range program node in
    post.(node) <-
      Array.fold_left
        (fun acc c -> Is.union acc post.(c))
        (Is.union (Is.interval lo hi) pre)
        (Program.children program node);
    completed.(node) <- true
  in
  (try visit (Program.root program) ~pre:Is.empty with Done -> ());
  {
    races = List.rev !races;
    stats =
      {
        n_leaves;
        n_fire_edges = Program.n_fire_edges program;
        n_accesses = !n_accesses;
        n_queries = !n_queries;
        sp_hits = !sp_hits;
      };
  }

let find_races ?limit program = (analyze ?limit program).races

let race_free program = find_races ~limit:1 program = []

let diagnose ?limit ?verdict program =
  let races =
    match verdict with
    | Some v -> v.races
    | None -> find_races ?limit program
  in
  List.map (Rule_check.lift program) races
