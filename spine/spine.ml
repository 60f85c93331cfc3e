(* spine.exe — the layered benchmark.

     spine.exe [--seed S] [--trace FILE]
         every workload, each in its own process; prints every
         end-to-end metric by name and unit
     spine.exe --workload W [--seed S] [--trace 0|1|FILE]
         one workload in this process; the last line of stdout is the
         result object {"correct","attempted","failed","metrics"}
     spine.exe --smoke [--bench BENCHMARK.json]
         every workload at toy scale, untraced and traced; fails unless
         nothing failed and every metric named in BENCHMARK.json is
         reported
     spine.exe record --out FILE [--seed S] [--workload W ...]
         three runs of each workload (seeds S, S+1, S+2) into a record
     spine.exe diff BASE NEW [--bench BENCHMARK.json]
         verdict per (workload, metric) under the bounds of
         BENCHMARK.json; exits 1 if anything regressed

   Each workload's amount of work is fixed; [--seconds N], which the
   benchmark harness passes, is accepted and has no effect.

   A traced run (--trace 1, or a file name) records a span around each
   call into a library, prints the per-layer self-time table, reports
   the per-layer metrics instead of the end-to-end ones, and writes the
   spans as Chrome/Perfetto JSON (to spine-trace-<workload>.json for
   --trace 1). *)

open Common
module Span = Spine_lib.Span
module Stats = Spine_lib.Stats
module Diff = Spine_lib.Diff

module type WORKLOAD = sig
  type state

  val name : string

  val setup : ctx -> state

  (* releases a set-up that will not be measured *)
  val teardown : state -> unit

  (* the measured phase; releases the state *)
  val measure : ctx -> state -> outcome
end

let workloads : (module WORKLOAD) list =
  [ (module Pipeline); (module Exec); (module Serve.Hot); (module Serve.Cold) ]

let workload_names = List.map (fun (module W : WORKLOAD) -> W.name) workloads

let default_seed = 1

(* runs per workload in a record *)
let runs_per_set = 3

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("spine: " ^ s);
      exit 2)
    fmt

(* ------------------------------ one run ----------------------------- *)

let metric_json (name, unit_, value) =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ])

(* an untraced run prints its diagnostics on the line before its result,
   after this prefix *)
let diagnostics_prefix = "diagnostics "

let run_workload (module W : WORKLOAD) ctx ~trace_file =
  (* An untraced run sets up three times and reports the median, so work
     moved into set-up shows: one set-up before the measured one and one
     after the measured phase, so that a burst of the host's interference
     does not catch all three. *)
  let extra = if ctx.smoke || trace_file <> None then 0 else 1 in
  let spare () =
    let dt =
      let st, dt = timed (fun () -> W.setup ctx) in
      W.teardown st;
      dt
    in
    (* with nothing of the set-up left live, so the peak RSS is that of
       one set-up, not of several *)
    Gc.full_major ();
    dt
  in
  let before = List.init extra (fun _ -> spare ()) in
  let st, setup_s = timed (fun () -> W.setup ctx) in
  let span_ns = if trace_file <> None then Span.enable () else 0. in
  let out, measured_s = timed (fun () -> W.measure ctx st) in
  let rss_mb = peak_rss_mb "self" +. out.extra_rss_mb in
  let setup_times = before @ (setup_s :: List.init extra (fun _ -> spare ())) in
  let diagnostics =
    List.map
      (fun (n, u) ->
        ( n,
          u,
          match n with
          | "throughput" -> out.throughput
          | "latency_p50_ms" -> out.p50_ms
          | _ -> out.p99_ms ))
      Layers.diagnostics
  in
  let metrics =
    match trace_file with
    | None ->
      [
        ("setup_s", Stats.median (Array.of_list setup_times));
        ("peak_rss_mb", rss_mb);
      ]
      |> List.map (fun (n, v) -> (n, List.assoc n Layers.end_to_end, v))
    | Some _ ->
      let spans = Span.count () in
      let overhead = 100. *. float_of_int spans *. span_ns /. (measured_s *. 1e9) in
      let own =
        out.layers
        @ [ ("trace.spans", float_of_int spans); ("trace.overhead_pct", overhead) ]
        @ List.map (fun (n, _, v) -> ("trace." ^ n, v)) diagnostics
      in
      List.map
        (fun (n, u) ->
          let v =
            match List.assoc_opt n own with
            | Some v -> v
            | None when String.ends_with ~suffix:".busy_s" n ->
              let span = String.sub n 0 (String.length n - 7) in
              float_of_int (Span.total span).Span.total_ns /. 1e9
            | None -> 0.
          in
          (n, u, v))
        Layers.all
  in
  Printf.printf "host %s\n" (Json.to_string (host_json ()));
  Printf.printf "workload %s  seed %d  trace %s\n" W.name ctx.seed
    (Option.value ~default:"off" trace_file);
  List.iter (fun (n, u, v) -> Printf.printf "  %-36s %14.6g %s\n" n v u) metrics;
  Printf.printf "  %-36s %14.6g (%d/%d)\n" "fail_rate"
    (float_of_int out.failed /. float_of_int (max 1 out.attempted))
    out.failed out.attempted;
  List.iter
    (fun (n, u, v) -> Printf.printf "  %-36s %14.6g %s (diagnostic)\n" n v u)
    diagnostics;
  Printf.printf "  %-36s %14d\n" "latency samples" out.samples;
  if trace_file = None then
    print_endline
      (diagnostics_prefix ^ Json.to_string (Json.Obj (List.map metric_json diagnostics)));
  Option.iter
    (fun file ->
      Format.printf "%a@." Span.pp_self_times ();
      Span.write_chrome file;
      Printf.printf "trace: %d spans -> %s\n" (Span.count ()) file)
    trace_file;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (out.failed = 0));
            ("attempted", Json.Int (max 1 out.attempted));
            ("failed", Json.Int out.failed);
            ("metrics", Json.Obj (List.map metric_json metrics));
          ]))

(* ------------------------- child processes -------------------------- *)

(* run one workload in a child process; its result object, with its
   diagnostics (if any) added as the member "diagnostics".  Its output is
   echoed unless [quiet] (then only when it produced no result) *)
let child ?(quiet = false) ~workload ~seed ~trace ~smoke () =
  let args =
    [ "--workload"; workload; "--seed"; string_of_int seed; "--trace"; trace ]
    @ if smoke then [ "--smoke" ] else []
  in
  let lines, status = run_self args in
  let echo () = List.iter (fun l -> print_endline ("  | " ^ l)) lines in
  if not quiet then echo ();
  let result =
    match (status, last lines) with
    | Unix.WEXITED _, Some l -> (
      match Json.parse l with
      | Json.Obj members as j when Json.member "metrics" j <> None ->
        let diagnostics =
          List.find_map
            (fun l ->
              if String.starts_with ~prefix:diagnostics_prefix l then
                let n = String.length diagnostics_prefix in
                try Some (Json.parse (String.sub l n (String.length l - n)))
                with Json.Parse_error _ -> None
              else None)
            lines
        in
        Ok
          (match diagnostics with
          | Some d -> Json.Obj (members @ [ ("diagnostics", d) ])
          | None -> j)
      | _ | (exception Json.Parse_error _) -> Error "no result line")
    | _, _ -> Error "child died"
  in
  if quiet && Result.is_error result then echo ();
  result

(* the value of metric [name] in a result's member [key] ("metrics" or
   "diagnostics"); none when absent or not a number *)
let result_value ?(key = "metrics") r name =
  match Option.bind (Option.bind (Json.member key r) (Json.member name)) (Json.member "value") with
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

(* where a traced run of workload [w] writes its spans: [--trace 1]
   means spine-trace-<w>.json; a file name is used as given for one
   workload, and with -<w> before its extension for all of them *)
let trace_file ~all w = function
  | "1" -> Printf.sprintf "spine-trace-%s.json" w
  | f when all -> Printf.sprintf "%s-%s.json" (Filename.remove_extension f) w
  | f -> f

let all_cmd ~seed ~trace =
  Printf.printf "host %s  seed %d\n" (Json.to_string (host_json ())) seed;
  let ok = ref true in
  let rows =
    List.map
      (fun w ->
        Printf.printf "== %s\n%!" w;
        let r = child ~workload:w ~seed ~trace:"0" ~smoke:false () in
        let traced =
          Option.map
            (fun t ->
              child ~workload:w ~seed ~trace:(trace_file ~all:true w t)
                ~smoke:false ())
            trace
        in
        (match r with
        | Ok j when Json.member "correct" j = Some (Json.Bool true) -> ()
        | _ -> ok := false);
        (w, r, traced))
      workload_names
  in
  Printf.printf "\n%-11s %-16s %14s %s\n" "workload" "metric" "value" "unit";
  List.iter
    (fun (w, r, traced) ->
      match r with
      | Error e -> Printf.printf "%-11s FAILED: %s\n" w e
      | Ok j ->
        let row ?key suffix (m, u) =
          Printf.printf "%-11s %-16s %14.6g %s%s\n" w m
            (Option.value ~default:nan (result_value ?key j m))
            u suffix
        in
        List.iter (row "") Layers.end_to_end;
        let num k = Option.fold ~none:0. ~some:Json.to_number (Json.member k j) in
        Printf.printf "%-11s %-16s %14.6g (%g/%g)\n" w "fail_rate"
          (num "failed" /. Float.max 1. (num "attempted"))
          (num "failed") (num "attempted");
        List.iter (row ~key:"diagnostics" " (diagnostic)") Layers.diagnostics;
        (match traced with
        | Some (Ok t) -> (
          match
            ( result_value ~key:"diagnostics" j "throughput",
              result_value t "trace.throughput" )
          with
          | Some u, Some tr when tr > 0. ->
            Printf.printf "%-11s %-16s %+13.1f%% (untraced / traced throughput - 1)\n" w
              "trace overhead" (100. *. ((u /. tr) -. 1.))
          | _ -> ())
        | Some (Error e) -> Printf.printf "%-11s traced run FAILED: %s\n" w e
        | None -> ()))
    rows;
  exit (if !ok then 0 else 1)

(* ------------------------------ smoke ------------------------------- *)

let names_in bench key =
  List.map
    (fun m -> Json.to_string_exn (Option.get (Json.member "name" m)))
    (Json.to_list (Option.get (Json.member key bench)))

let smoke_cmd ~bench =
  let bench = Json.parse (read_file bench) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun w ->
      let trace_file = Printf.sprintf "spine-smoke-%d-%s.json" (Unix.getpid ()) w in
      List.iter
        (fun (trace, key) ->
          match
            child ~quiet:true ~workload:w ~seed:default_seed ~trace
              ~smoke:true ()
          with
          | Error e -> problem "%s (trace %s): %s" w trace e
          | Ok r ->
            if Json.member "failed" r <> Some (Json.Int 0) then
              problem "%s (trace %s): fail_rate is not 0" w trace;
            let emitted =
              match Json.member "metrics" r with
              | Some (Json.Obj l) -> List.map fst l
              | _ -> []
            in
            List.iter
              (fun n ->
                if not (List.mem n emitted) then
                  problem "%s (trace %s): %s is not reported" w trace n)
              (names_in bench key);
            List.iter
              (fun n ->
                if not (List.mem n (names_in bench key)) then
                  problem "%s (trace %s): %s is not in BENCHMARK.json" w trace n)
              emitted)
        [ ("0", "end_to_end"); (trace_file, "per_layer") ];
      (match Json.member "traceEvents" (Json.parse (read_file trace_file)) with
      | Some (Json.List (_ :: _)) -> ()
      | _ -> problem "%s: trace file has no events" w
      | exception (Sys_error _ | Json.Parse_error _) ->
        problem "%s: trace file unreadable" w);
      try Sys.remove trace_file with Sys_error _ -> ())
    workload_names;
  List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev !problems);
  if !problems = [] then print_endline "smoke: ok";
  exit (if !problems = [] then 0 else 1)

(* ------------------------------ record ------------------------------ *)

let record_cmd ~out ~seed ~only =
  let results =
    List.concat_map
      (fun w ->
        List.init runs_per_set (fun i ->
            let s = seed + i in
            Printf.printf "== %s seed %d\n%!" w s;
            match child ~workload:w ~seed:s ~trace:"0" ~smoke:false () with
            | Ok r ->
              Json.Obj
                (("workload", Json.String w)
                :: ("seed", Json.Int s)
                :: (match r with Json.Obj l -> l | _ -> []))
            | Error e -> die "%s seed %d: %s" w s e))
      only
  in
  let summary =
    List.map
      (fun w ->
        let mine =
          List.filter (fun r -> Json.member "workload" r = Some (Json.String w)) results
        in
        let quartiles key (m, u) =
          let v =
            Array.of_list (List.filter_map (fun r -> result_value ~key r m) mine)
          in
          if v = [||] then (m, Json.Null)
          else
            let q1, q2, q3 = Stats.quartiles v in
            ( m,
              Json.Obj
                [
                  ("unit", Json.String u);
                  ("q1", Json.Float q1);
                  ("median", Json.Float q2);
                  ("q3", Json.Float q3);
                  ("spread", Json.Float (Stats.spread v));
                ] )
        in
        ( w,
          Json.Obj
            (List.map (quartiles "metrics") Layers.end_to_end
            @ [
                ( "diagnostics",
                  Json.Obj (List.map (quartiles "diagnostics") Layers.diagnostics) );
              ]) ))
      only
  in
  let record =
    Json.Obj
      [
        ("host", host_json ());
        ("summary", Json.Obj summary);
        ("runs", Json.List results);
      ]
  in
  Out_channel.with_open_bin out (fun oc -> Json.to_channel oc record);
  Printf.printf "recorded %d run(s) -> %s\n" (List.length results) out

(* ------------------------------- diff ------------------------------- *)

let diff_cmd ~bench base next =
  let load f =
    try Json.parse (read_file f) with
    | Sys_error e -> die "%s" e
    | Json.Parse_error e -> die "%s: %s" f e
  in
  let rows =
    Diff.compare
      ~bounds:(Diff.bounds (load bench))
      ~base:(load base) ~next:(load next)
  in
  Format.printf "%a@." Diff.pp_rows rows;
  exit (if Diff.regressed rows then 1 else 0)

(* ------------------------------- main ------------------------------- *)

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable trace : string option;
  mutable smoke : bool;
  mutable bench : string;
  mutable out : string option;
  mutable positional : string list;
}

let parse args =
  let o =
    {
      workloads = [];
      seed = default_seed;
      trace = None;
      smoke = false;
      bench = "BENCHMARK.json";
      out = None;
      positional = [];
    }
  in
  let int_of s = match int_of_string_opt s with Some i -> i | None -> die "bad number %S" s in
  let rec go = function
    | [] -> ()
    | "--smoke" :: rest ->
      o.smoke <- true;
      go rest
    | "--workload" :: w :: rest ->
      if not (List.mem w workload_names) then
        die "unknown workload %S (expected %s)" w (String.concat ", " workload_names);
      o.workloads <- o.workloads @ [ w ];
      go rest
    | "--seed" :: s :: rest ->
      o.seed <- int_of s;
      go rest
    | "--seconds" :: _ :: rest -> go rest
    | "--trace" :: t :: rest ->
      o.trace <- (if t = "0" then None else Some t);
      go rest
    | "--bench" :: f :: rest ->
      o.bench <- f;
      go rest
    | "--out" :: f :: rest ->
      o.out <- Some f;
      go rest
    | a :: _ when String.starts_with ~prefix:"--" a -> die "unknown or incomplete option %s" a
    | p :: rest ->
      o.positional <- o.positional @ [ p ];
      go rest
  in
  go args;
  o

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match List.tl (Array.to_list Sys.argv) with
  | [ "__serve"; path ] -> Serve.serve_main path
  | "diff" :: rest -> (
    let o = parse rest in
    match o.positional with
    | [ base; next ] -> diff_cmd ~bench:o.bench base next
    | _ -> die "usage: spine.exe diff BASE.json NEW.json [--bench BENCHMARK.json]")
  | "record" :: rest ->
    canonical_env ();
    let o = parse rest in
    let out = match o.out with Some f -> f | None -> die "record needs --out FILE" in
    record_cmd ~out ~seed:o.seed
      ~only:(if o.workloads = [] then workload_names else o.workloads)
  | args -> (
    canonical_env ();
    let o = parse args in
    if o.positional <> [] then die "unexpected argument %s" (List.hd o.positional);
    match o.workloads with
    | [ w ] ->
      let ctx = { seed = o.seed; smoke = o.smoke } in
      run_workload
        (List.find (fun (module W : WORKLOAD) -> W.name = w) workloads)
        ctx
        ~trace_file:(Option.map (trace_file ~all:false w) o.trace)
    | [] ->
      if o.smoke then smoke_cmd ~bench:o.bench
      else all_cmd ~seed:o.seed ~trace:o.trace
    | _ -> die "one --workload at a time (or none for all of them)")
