module Json = Nd_util.Json

type better = Lower | Higher

type bound = { metric : string; unit_ : string; better : better; bound : float }

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> raise (Json.Parse_error (Printf.sprintf "missing field %S" name))

let bounds bench =
  List.map
    (fun m ->
      {
        metric = Json.to_string_exn (field "name" m);
        unit_ = Json.to_string_exn (field "unit" m);
        better =
          (match Json.to_string_exn (field "better" m) with
          | "lower" -> Lower
          | "higher" -> Higher
          | s -> raise (Json.Parse_error ("bad \"better\": " ^ s)));
        bound = Json.to_number (field "bound" m);
      })
    (Json.to_list (field "end_to_end" bench))

type label = Improved | Unchanged | Regressed | Unresolved

let label_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* how much worse [next] is than [base], positive = worse *)
let worse b ~base ~next =
  match b.better with Lower -> next -. base | Higher -> base -. next

let classify ?(floor = 0.) b ~base ~next =
  let mb = Stats.median base and mn = Stats.median next in
  let allowed = Float.max (b.bound *. Float.abs mb) floor in
  let by = worse b ~base:mb ~next:mn in
  let every cmp = Array.for_all (fun n -> Array.for_all (cmp n) base) next in
  if Stats.spread base > b.bound || Stats.spread next > b.bound then
    if every (fun n x -> worse b ~base:x ~next:n < 0.) && -.by > allowed then Improved
    else if every (fun n x -> worse b ~base:x ~next:n > 0.) && by > allowed
    then Regressed
    else Unresolved
  else if by > allowed then Regressed
  else if -.by > allowed then Improved
  else Unchanged

type row = {
  workload : string;
  name : string;
  unit_name : string;
  base_median : float;
  next_median : float;
  base_spread : float;
  next_spread : float;
  row_bound : float;
  label : label;
}

let runs_of record workload =
  List.filter
    (fun r -> Json.to_string_exn (field "workload" r) = workload)
    (Json.to_list (field "runs" record))

let workloads_of record =
  List.fold_left
    (fun acc r ->
      let w = Json.to_string_exn (field "workload" r) in
      if List.mem w acc then acc else acc @ [ w ])
    []
    (Json.to_list (field "runs" record))

let values runs metric =
  Array.of_list
    (List.filter_map
       (fun r ->
         Option.map
           (fun m -> Json.to_number (field "value" m))
           (Json.member metric (field "metrics" r)))
       runs)

let fail_rate runs =
  let sum key =
    List.fold_left (fun a r -> a +. Json.to_number (field key r)) 0. runs
  in
  let attempted = sum "attempted" in
  if attempted = 0. then 0. else sum "failed" /. attempted

let compare ~bounds ~base ~next =
  List.concat_map
    (fun workload ->
      let br = runs_of base workload and nr = runs_of next workload in
      let metric_rows =
        List.filter_map
          (fun b ->
            let bv = values br b.metric and nv = values nr b.metric in
            if Array.length bv = 0 || Array.length nv = 0 then None
            else
              let label =
                classify ~floor:(if b.metric = "setup_s" then 0.05 else 0.) b ~base:bv ~next:nv
              in
              Some
                {
                  workload;
                  name = b.metric;
                  unit_name = b.unit_;
                  base_median = Stats.median bv;
                  next_median = Stats.median nv;
                  base_spread = Stats.spread bv;
                  next_spread = Stats.spread nv;
                  row_bound = b.bound;
                  label;
                })
          bounds
      in
      let bf = fail_rate br and nf = fail_rate nr in
      metric_rows
      @ [
          {
            workload;
            name = "fail_rate";
            unit_name = "ratio";
            base_median = bf;
            next_median = nf;
            base_spread = 0.;
            next_spread = 0.;
            row_bound = 0.;
            label =
              (if nf > bf then Regressed
               else if nf < bf then Improved
               else Unchanged);
          };
        ])
    (List.filter
       (fun w -> List.mem w (workloads_of next))
       (workloads_of base))

let regressed rows = List.exists (fun r -> r.label = Regressed) rows

let pp_rows ppf rows =
  Format.fprintf ppf "@[<v>%-11s %-15s %-6s %12s %12s %8s %7s %7s %6s  %s@,"
    "workload" "metric" "unit" "base" "new" "change" "spr.b" "spr.n" "bound"
    "verdict";
  List.iter
    (fun r ->
      let change =
        if r.base_median = 0. then 0.
        else 100. *. (r.next_median -. r.base_median) /. Float.abs r.base_median
      in
      Format.fprintf ppf
        "%-11s %-15s %-6s %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s@,"
        r.workload r.name r.unit_name r.base_median r.next_median change
        (100. *. r.base_spread) (100. *. r.next_spread) (100. *. r.row_bound)
        (label_name r.label))
    rows;
  Format.fprintf ppf "@]"
