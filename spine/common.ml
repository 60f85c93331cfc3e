(* Plumbing shared by the workloads: the run context, what a workload
   hands back, the host block, memory high-water marks, child
   processes. *)

module Json = Nd_util.Json

type ctx = {
  seed : int;
  smoke : bool;  (** toy scale: every path once, no timing meaning *)
}

(* what one measured phase produced; the runner turns it into the
   end-to-end metrics and fills set-up time and memory *)
type outcome = {
  attempted : int;
  failed : int;
  throughput : float;  (** operations per second *)
  p50_ms : float;
  p99_ms : float;
  samples : int;  (** latency samples behind the percentiles *)
  extra_rss_mb : float;  (** peak RSS of helper processes (the server) *)
  layers : (string * float) list;
      (** per-layer values the workload computes itself; spans give the
          rest *)
}

let now_ns = Spine_lib.Span.now_ns

(* exact p50 / p99 of latency samples *)
let percentiles_ms samples =
  let s = Spine_lib.Stats.sorted samples in
  (Spine_lib.Stats.percentile_sorted s 0.5, Spine_lib.Stats.percentile_sorted s 0.99)

(* time [f ()] in seconds *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, float_of_int (now_ns () - t0) /. 1e9)

(* [repeat ctx n f] calls [f 0] ... [f (n - 1)]; once at toy scale.
   Each workload's amount of work is a constant, so two commits compared
   do identical work and nothing it leaves behind (memory, cache
   contents) depends on how fast it ran. *)
let repeat ctx n f =
  for r = 0 to (if ctx.smoke then 0 else n - 1) do
    f r
  done

(* ------------------------------ host ------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* the commit of the checkout when it is a git work tree, read straight
   from .git (no subprocess) *)
let commit () =
  match String.trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "unknown"
  | head -> (
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> (
      match String.trim (read_file (Filename.concat ".git" r)) with
      | sha -> sha
      | exception Sys_error _ -> (
        match read_file ".git/packed-refs" with
        | exception Sys_error _ -> "unknown"
        | packed ->
          List.find_map
            (fun line ->
              match String.split_on_char ' ' line with
              | [ sha; name ] when name = r -> Some sha
              | _ -> None)
            (String.split_on_char '\n' packed)
          |> Option.value ~default:"unknown"))
    | _ -> head)

let host_json () =
  Json.Obj
    [
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("commit", Json.String (commit ()));
    ]

(* VmHWM of a process, in MiB; 0 when /proc has no answer *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.
  | status ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> None)
      (String.split_on_char '\n' status)
    |> Option.value ~default:0.

(* ---------------------------- environment --------------------------- *)

let workers = 2

(* the benchmark pins the runtime's worker count and clears every other
   NDSIM_* knob, for itself and every process it starts: re-exec once
   with the canonical environment when the inherited one differs *)
let canonical_env () =
  let pinned = Printf.sprintf "NDSIM_WORKERS=%d" workers in
  let env = Array.to_list (Unix.environment ()) in
  let is_nd kv = String.starts_with ~prefix:"NDSIM_" kv in
  if List.filter is_nd env <> [ pinned ] then
    Unix.execve Sys.executable_name Sys.argv
      (Array.of_list (pinned :: List.filter (fun kv -> not (is_nd kv)) env))

(* ----------------------------- processes ---------------------------- *)

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (EINTR, _, _) -> waitpid_retry pid

(* run this executable with [args]; returns its stdout lines and exit
   status; stderr passes through *)
let run_self args =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
  in
  let lines = In_channel.input_lines ic in
  let status = Unix.close_process_in ic in
  (lines, status)

let rec last = function [] -> None | [ x ] -> Some x | _ :: tl -> last tl
