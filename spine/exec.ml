(* Real execution: serial elision and the three backends (fork-join,
   dataflow, fibers) at vertex granularity on [workers] domains.  Only
   the runtime and the kernels work in the measured phase; compilation
   happens in set-up, and operand reset and result checks sit outside
   the timings. *)

open Common
module Span = Spine_lib.Span
module Workload = Nd_algos.Workload
module Workloads = Nd_experiments.Workloads
module Backend = Nd_runtime.Backend

let name = "exec"

let tolerance = 1e-6

type prog = { label : string; w : Workload.t; p : Nd.Program.t }

type state = prog list

let shapes ctx =
  if ctx.smoke then [ ("mm", 32, 8); ("lcs", 128, 16) ]
  else
    [ ("mm", 128, 8); ("trs", 128, 8); ("cholesky", 128, 8); ("lcs", 1024, 16) ]

let setup ctx =
  List.mapi
    (fun i (label, n, base) ->
      let w =
        Workloads.build ~n ~base (Workloads.find label) ~seed:((ctx.seed * 1000) + i)
      in
      let p = Workload.compile w in
      ignore (Nd_dag.Dag.csr (Nd.Program.dag p));
      { label; w; p })
    (shapes ctx)

let teardown _ = ()

let rotate k l =
  let n = List.length l in
  List.init n (fun i -> List.nth l ((i + k) mod n))

(* about 1 s each on a 2-core x86 host, two thirds of it the untimed
   operand resets and checks *)
let rounds = 10

(* A round runs every program serially and on each backend.  The
   operations are the 12 (backend, program) executions; an execution's
   time is the least over the rounds (see README.md, "Diagnostics").
   The p99 diagnostic is over every execution. *)
let measure ctx progs =
  let attempted = ref 0 and failed = ref 0 in
  (* span name -> least seconds over the rounds *)
  let best = Hashtbl.create 16 in
  (* every backend execution, ms *)
  let all = ref [] in
  let false_deadlocks = ref 0 in
  (* reset, run [f] timed inside span [span], check *)
  let checked ~op span prog f =
    prog.w.Workload.reset ();
    incr attempted;
    let raised, dt =
      timed (fun () -> match Span.with_ ~op span f with () -> None | exception e -> Some e)
    in
    let err = prog.w.Workload.check () in
    let ok () =
      if String.starts_with ~prefix:"runtime." span then all := (dt *. 1e3) :: !all;
      Hashtbl.replace best span
        (Float.min dt (Option.value ~default:infinity (Hashtbl.find_opt best span)))
    in
    match raised with
    | None when err <= tolerance -> ok ()
    | None ->
      incr failed;
      Printf.eprintf "exec: %s %s deviates by %g\n%!" span prog.label err
    (* The fiber pool's deadlock check reads its live-fiber count twice;
       when the last fiber finishes between the two reads it reports a
       deadlock with nothing blocked after the program has completed.  A
       real deadlock leaves fibers blocked.  Counted apart, not failed
       (see README.md). *)
    | Some (Nd_runtime.Fiber_exec.Deadlock { blocked = 0 }) when err <= tolerance ->
      incr false_deadlocks;
      Printf.eprintf "exec: %s %s: false deadlock report after completion\n%!" span
        prog.label;
      ok ()
    | Some e ->
      incr failed;
      Printf.eprintf "exec: %s %s raised %s\n%!" span prog.label (Printexc.to_string e)
  in
  repeat ctx rounds (fun r ->
      (* untimed, so no run pays for an earlier one's garbage *)
      Gc.full_major ();
      List.iteri
        (fun i prog ->
          let op = (r * 100) + i in
          checked ~op ("core.serial." ^ prog.label) prog (fun () -> Nd.Serial_exec.run prog.p);
          List.iter
            (fun (module B : Backend.S) ->
              checked ~op
                (Printf.sprintf "runtime.%s.%s" B.name prog.label)
                prog
                (fun () -> B.run ~workers ~grain:0 prog.p))
            (rotate r Backend.all))
        progs);
  let least span = Option.value ~default:infinity (Hashtbl.find_opt best span) in
  let sum f = List.fold_left (fun a prog -> a +. least (f prog.label)) 0. progs in
  let backend_s b = sum (Printf.sprintf "runtime.%s.%s" b) in
  let runs =
    List.concat_map
      (fun b -> List.map (fun prog -> least (Printf.sprintf "runtime.%s.%s" b prog.label)) progs)
      Backend.names
  in
  let p50_ms, _ = percentiles_ms (Array.of_list (List.map (fun s -> s *. 1e3) runs)) in
  {
    attempted = !attempted;
    failed = !failed;
    throughput = float_of_int (List.length runs) /. List.fold_left ( +. ) 0. runs;
    p50_ms;
    p99_ms = (if !all = [] then nan else snd (percentiles_ms (Array.of_list !all)));
    samples = List.length !all;
    extra_rss_mb = 0.;
    layers =
      ("runtime.fiber.false_deadlocks", float_of_int !false_deadlocks)
      :: List.concat_map
           (fun b ->
             [
               (Printf.sprintf "runtime.%s.run_s" b, backend_s b);
               ( Printf.sprintf "runtime.%s.speedup" b,
                 sum (Printf.sprintf "core.serial.%s") /. backend_s b );
             ])
           Backend.names;
  }
