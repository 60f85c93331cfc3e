(* The exhaustive race search over a DAG's reachability closure: every
   pair of vertices whose footprints conflict is checked against a
   transitive-closure bit-matrix.  Quadratic in time and space, so it
   is kept only as the reference that Nd_analyze.Esp_bags is tested
   against (test_analyze, test_conform) and that the small-DAG tests
   call directly. *)

module Dag = Nd_dag.Dag
module Race = Nd_dag.Race
module Is = Nd_util.Interval_set

type reachability = { nbits : int; words : int; bits : Bytes.t }
(* row v = descendants of v (including v), packed little-endian bit per id *)

let reachability dag =
  let n = Dag.n_vertices dag and c = Dag.csr dag in
  let words = (n + 7) / 8 in
  let bits = Bytes.make (n * words) '\000' in
  let set row v =
    let idx = (row * words) + (v / 8) in
    Bytes.unsafe_set bits idx
      (Char.chr (Char.code (Bytes.unsafe_get bits idx) lor (1 lsl (v mod 8))))
  in
  let or_row dst src =
    let d0 = dst * words and s0 = src * words in
    for i = 0 to words - 1 do
      let b = Char.code (Bytes.unsafe_get bits (d0 + i)) lor Char.code (Bytes.unsafe_get bits (s0 + i)) in
      Bytes.unsafe_set bits (d0 + i) (Char.unsafe_chr b)
    done
  in
  let order = Dag.topo_order dag in
  (* reverse topological: successors first *)
  for i = n - 1 downto 0 do
    let v = order.(i) in
    set v v;
    for k = c.Dag.succ_off.(v) to c.Dag.succ_off.(v + 1) - 1 do
      or_row v c.Dag.succ_tgt.(k)
    done
  done;
  { nbits = n; words; bits }

(* is there a directed path u ->* v (u = v included)? *)
let reachable r u v =
  if u < 0 || u >= r.nbits || v < 0 || v >= r.nbits then
    invalid_arg "Race_ref.reachable: id out of range";
  let idx = (u * r.words) + (v / 8) in
  Char.code (Bytes.get r.bits idx) land (1 lsl (v mod 8)) <> 0

(* up to [limit] races, in increasing (u, v) order *)
let find_races ?(limit = 16) dag =
  let n = Dag.n_vertices dag in
  let reach = reachability dag in
  let races = ref [] and count = ref 0 in
  (try
     for u = 0 to n - 1 do
       let wu = Dag.writes_of dag u and ru = Dag.reads_of dag u in
       if not (Is.is_empty wu && Is.is_empty ru) then
         for v = u + 1 to n - 1 do
           let wv = Dag.writes_of dag v in
           let ww = Is.inter wu wv in
           let rw = Is.union (Is.inter ru wv) (Is.inter wu (Dag.reads_of dag v)) in
           if not (Is.is_empty ww && Is.is_empty rw) then
             if not (reachable reach u v || reachable reach v u) then begin
               let write_write = not (Is.is_empty ww) in
               let overlap = if write_write then ww else rw in
               races := { Race.u; v; overlap; write_write } :: !races;
               incr count;
               if !count >= limit then raise Exit
             end
         done
     done
   with Exit -> ());
  List.rev !races

let race_free dag = find_races ~limit:1 dag = []

let diagnose ?limit program =
  List.map (Nd.Rule_check.lift program)
    (find_races ?limit (Nd.Program.dag program))
