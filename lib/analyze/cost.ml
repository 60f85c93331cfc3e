module Json = Nd_util.Json
module Program = Nd.Program
module Pmh = Nd_pmh.Pmh
module Sb = Nd_sched.Sb_sched

type report = {
  work : int;
  span : int;
  parallelism : float;
  peak_footprint : int;
  root_size : int;
  n_leaves : int;
  n_nodes : int;
  n_fire_edges : int;
}

type t = report

(* One pass over the program's post-order nodes (children first): a
   leaf's peak is its footprint size, a Seq's the max of its children's,
   a Par's or Fire's their sum.  Everything else is read off compile. *)
let of_program p =
  let n = Program.n_nodes p in
  let peak = Array.make n 0 in
  for id = 0 to n - 1 do
    let cs = Program.children p id in
    peak.(id) <-
      (match Program.kind_of p id with
      | Program.Leaf _ -> Program.size p id
      | Program.Seq -> Array.fold_left (fun acc c -> max acc peak.(c)) 0 cs
      | Program.Par | Program.Fire _ ->
        Array.fold_left (fun acc c -> acc + peak.(c)) 0 cs)
  done;
  let a = Nd.Analysis.analyze p and root = Program.root p in
  {
    work = a.Nd.Analysis.work;
    span = a.Nd.Analysis.span;
    parallelism = a.Nd.Analysis.parallelism;
    peak_footprint = peak.(root);
    root_size = Program.size p root;
    n_leaves = a.Nd.Analysis.n_leaves;
    n_nodes = n;
    n_fire_edges = Program.n_fire_edges p;
  }

let report (t : t) = t

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>work        %d@,span        %d@,parallelism %.2f@,\
     peak fp     %d@,root size   %d@,leaves      %d@,nodes       %d@,\
     fire edges  %d@]"
    r.work r.span r.parallelism r.peak_footprint r.root_size r.n_leaves
    r.n_nodes r.n_fire_edges

let report_to_json r =
  Json.Obj
    [
      ("work", Json.Int r.work);
      ("span", Json.Int r.span);
      ("parallelism", Json.Float r.parallelism);
      ("peak_footprint", Json.Int r.peak_footprint);
      ("root_size", Json.Int r.root_size);
      ("n_leaves", Json.Int r.n_leaves);
      ("n_nodes", Json.Int r.n_nodes);
      ("n_fire_edges", Json.Int r.n_fire_edges);
    ]

(* ------------------------------------------------------------------ *)
(* Theorem 1 certification                                             *)
(* ------------------------------------------------------------------ *)

type level_check = { level : int; m : int; misses : int; bound : int }

type certification = {
  sigma : float;
  levels : level_check list;
  certified : bool;
  stats : Sb.stats;
}

(* m_j is SB's own level capacity, so each bound reads the cut that
   Program.decompose memoized for the run one line above *)
let certify_theorem1 ?(sigma = 1. /. 3.) program machine =
  let stats = Sb.run ~sigma ~accounting:Sb.Rho program machine in
  let levels =
    List.init (Pmh.n_levels machine) (fun j ->
        let level = j + 1 in
        let m =
          max 1 (int_of_float (sigma *. float_of_int (Pmh.size machine ~level)))
        in
        {
          level;
          m;
          misses = stats.Sb.misses.(j);
          bound = Nd_mem.Pcc.q_star program ~m;
        })
  in
  {
    sigma;
    levels;
    certified = List.for_all (fun l -> l.misses <= l.bound) levels;
    stats;
  }

let certification_to_json c =
  Json.Obj
    [
      ("sigma", Json.Float c.sigma);
      ("certified", Json.Bool c.certified);
      ( "levels",
        Json.List
          (List.map
             (fun l ->
               Json.Obj
                 [
                   ("level", Json.Int l.level);
                   ("m", Json.Int l.m);
                   ("misses", Json.Int l.misses);
                   ("q_star_bound", Json.Int l.bound);
                 ])
             c.levels) );
    ]

let pp_certification ppf c =
  Format.fprintf ppf "@[<v>Theorem 1 (sigma=%.2f): %s@," c.sigma
    (if c.certified then "certified" else "VIOLATED");
  List.iter
    (fun l ->
      Format.fprintf ppf "  level %d: misses %d %s Q*(%d) = %d@," l.level
        l.misses
        (if l.misses <= l.bound then "<=" else ">")
        l.m l.bound)
    c.levels;
  Format.fprintf ppf "@]"
