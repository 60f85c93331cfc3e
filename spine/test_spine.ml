(* Unit tests for the benchmark's own arithmetic: exact percentiles,
   regression verdicts, open-loop due-time accounting. *)

open Spine_lib
module Json = Nd_util.Json

let close = Alcotest.float 1e-9

let ms x = x * 1_000_000

(* ----------------------------- Stats ------------------------------- *)

let test_percentiles () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "p50 of 1..100" 50.5 (Stats.percentile a 0.5);
  Alcotest.check close "p99 of 1..100" 99.01 (Stats.percentile a 0.99);
  Alcotest.check close "p0" 1. (Stats.percentile a 0.);
  Alcotest.check close "p100" 100. (Stats.percentile a 1.);
  Alcotest.check close "one sample" 7. (Stats.percentile [| 7. |] 0.99);
  Alcotest.check close "median of evens" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  (* a value just past the bucket edge of a log histogram is still exact *)
  Alcotest.check close "no bucketing" 1000.5 (Stats.median [| 1000.; 1001. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (Stats.percentile [||] 0.5))

(* the reference values are Python's statistics.quantiles(data, n=4) *)
let test_quartiles () =
  let q = Alcotest.(triple close close close) in
  Alcotest.check q "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check q "three" (1., 2., 3.) (Stats.quartiles [| 3.; 1.; 2. |]);
  Alcotest.check q "two" (0.75, 1.5, 2.25) (Stats.quartiles [| 2.; 1. |]);
  Alcotest.check q "1..11" (3., 6., 9.)
    (Stats.quartiles (Array.init 11 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread (Array.init 10 (fun i -> float_of_int (i + 1))))

(* ------------------------------ Diff ------------------------------- *)

let lower = { Diff.metric = "latency_p99_ms"; unit_ = "ms"; better = Diff.Lower; bound = 0.1 }

let higher = { lower with Diff.metric = "throughput"; better = Diff.Higher }

let label = Alcotest.testable (Fmt.of_to_string Diff.label_name) ( = )

let test_classify () =
  let c ?floor b base next = Diff.classify ?floor b ~base ~next in
  let tens = [| 10.; 10.1; 9.9 |] in
  Alcotest.check label "slower by 20%" Diff.Regressed (c lower tens [| 12.; 12.1; 11.9 |]);
  Alcotest.check label "within the bound" Diff.Unchanged (c lower tens [| 10.5; 10.6; 10.4 |]);
  Alcotest.check label "faster by 20%" Diff.Improved (c lower tens [| 8.; 8.1; 7.9 |]);
  Alcotest.check label "higher is better" Diff.Regressed (c higher tens [| 8.; 8.1; 7.9 |]);
  Alcotest.check label "higher improved" Diff.Improved (c higher tens [| 12.; 12.1; 11.9 |]);
  (* spread 100% > bound: a 20% median move is not resolvable... *)
  let wide = [| 5.; 10.; 15. |] in
  Alcotest.check label "unresolved" Diff.Unresolved (c lower wide [| 6.; 12.; 14. |]);
  (* ...unless every new run beats every old one by more than the bound *)
  Alcotest.check label "all better" Diff.Improved (c lower wide [| 1.; 2.; 3. |]);
  Alcotest.check label "all better, within the bound" Diff.Unresolved
    (c lower [| 10.; 10.5; 13. |] [| 9.6; 9.8; 9.9 |]);
  Alcotest.check label "all worse" Diff.Regressed (c lower wide [| 20.; 30.; 40. |]);
  (* setup_s: 40 ms worse on a 100 ms base is under the 50 ms floor *)
  let setup = { lower with Diff.metric = "setup_s" } in
  Alcotest.check label "under the floor" Diff.Unchanged
    (c ~floor:0.05 setup [| 0.1; 0.1; 0.1 |] [| 0.14; 0.14; 0.14 |]);
  Alcotest.check label "over the floor" Diff.Regressed
    (c ~floor:0.05 setup [| 0.1; 0.1; 0.1 |] [| 0.16; 0.16; 0.16 |])

let record runs =
  Json.Obj
    [
      ( "runs",
        Json.List
          (List.map
             (fun (workload, failed, tput) ->
               Json.Obj
                 [
                   ("workload", Json.String workload);
                   ("attempted", Json.Int 100);
                   ("failed", Json.Int failed);
                   ( "metrics",
                     Json.Obj
                       [
                         ( "throughput",
                           Json.Obj [ ("value", Json.Float tput); ("unit", Json.String "1/s") ] );
                       ] );
                 ])
             runs) );
    ]

let test_compare () =
  let bounds = [ higher ] in
  let rows base next = Diff.compare ~bounds ~base:(record base) ~next:(record next) in
  let find rows w m =
    (List.find (fun r -> r.Diff.workload = w && r.Diff.name = m) rows).Diff.label
  in
  let base = [ ("pipeline", 0, 10.); ("pipeline", 0, 10.); ("exec", 0, 5.); ("exec", 0, 5.) ] in
  let r = rows base [ ("pipeline", 1, 10.); ("pipeline", 0, 10.); ("exec", 0, 4.); ("exec", 0, 4.) ] in
  Alcotest.check label "any failure regresses" Diff.Regressed (find r "pipeline" "fail_rate");
  Alcotest.check label "pipeline unchanged" Diff.Unchanged (find r "pipeline" "throughput");
  Alcotest.check label "exec slower" Diff.Regressed (find r "exec" "throughput");
  Alcotest.(check bool) "regressed" true (Diff.regressed r);
  let r1 = rows base [ ("pipeline", 0, 10.); ("exec", 0, 5.1); ("exec", 0, 4.9) ] in
  Alcotest.(check bool) "nothing regressed" false (Diff.regressed r1)

(* ------------------------------- Due ------------------------------- *)

let test_due_schedule () =
  Alcotest.(check int) "k / rate" (ms 3) (Due.due_ns ~start_ns:0 ~rate:1000. 3);
  Alcotest.(check int) "offset" (ms 10 + 500_000) (Due.due_ns ~start_ns:(ms 10) ~rate:2000. 1)

(* Requests due every millisecond on one connection; the reply to the
   first stalls for 5 ms and the ones behind it queue.  Timed from their
   due times, the stall shows in every later request, and a generator
   that was held up by it (sending late) does not hide the wait. *)
let test_due_stall () =
  let t = Due.create () in
  let due k = Due.due_ns ~start_ns:0 ~rate:1000. k in
  (* request 0 on time; 1..4 could only be sent once the stall cleared *)
  Due.sent t ~id:0 ~due_ns:(due 0) ~sent_ns:0 ();
  for k = 1 to 4 do
    Due.sent t ~id:k ~due_ns:(due k) ~sent_ns:(ms 5) ()
  done;
  Alcotest.(check int) "outstanding" 5 (Due.outstanding t);
  let reply k ~at =
    match Due.answered t ~id:k ~now_ns:at with
    | Some r -> r
    | None -> Alcotest.fail "reply not matched"
  in
  let r0 = reply 0 ~at:(ms 5) in
  Alcotest.(check int) "stalled reply" (ms 5) r0.Due.latency_ns;
  List.iter
    (fun k ->
      let r = reply k ~at:(ms 5 + 100_000) in
      (* from send, each of these took 0.1 ms... *)
      Alcotest.(check int) "wire" 100_000 r.Due.wire_ns;
      (* ...but from due, the stall is still in it *)
      Alcotest.(check int) "latency from due" (ms 5 + 100_000 - due k) r.Due.latency_ns;
      Alcotest.(check int) "generator lateness" (ms 5 - due k) r.Due.late_ns;
      Alcotest.(check bool) "inflated" true (r.Due.latency_ns > ms 1))
    [ 1; 2; 3; 4 ];
  Alcotest.(check bool) "answered twice" true (Due.answered t ~id:2 ~now_ns:(ms 6) = None);
  Alcotest.(check int) "drained" 0 (Due.outstanding t)

let () =
  Alcotest.run "spine"
    [
      ( "stats",
        [
          Alcotest.test_case "exact percentiles" `Quick test_percentiles;
          Alcotest.test_case "python quartiles" `Quick test_quartiles;
        ] );
      ( "diff",
        [
          Alcotest.test_case "classification" `Quick test_classify;
          Alcotest.test_case "records" `Quick test_compare;
        ] );
      ( "due",
        [
          Alcotest.test_case "schedule" `Quick test_due_schedule;
          Alcotest.test_case "stalled reply" `Quick test_due_stall;
        ] );
    ]
