(* Nd_serve: framing, protocol codec, keyed LRU caches, the latency
   histogram, the thread-safety of the shared decompose memo, an
   end-to-end daemon round-trip over a unix socket, and shutdown under
   load. *)

module Json = Nd_util.Json
module Histogram = Nd_util.Histogram
module P = Nd_serve.Protocol
module Cache = Nd_serve.Cache
module Server = Nd_serve.Server
module Client = Nd_serve.Client

(* --------------------------- histogram ----------------------------- *)

let test_hist_exact_small () =
  let h = Histogram.create () in
  for v = 0 to 15 do
    Histogram.record h v
  done;
  Alcotest.(check int) "count" 16 (Histogram.count h);
  Alcotest.(check int) "sum" 120 (Histogram.sum h);
  Alcotest.(check int) "min" 0 (Histogram.min_value h);
  Alcotest.(check int) "max" 15 (Histogram.max_value h);
  (* small values are bucketed exactly *)
  Alcotest.(check int) "p100 exact" 15 (Histogram.percentile h 1.0);
  Alcotest.(check int) "p50 exact" 7 (Histogram.percentile h 0.5)

let test_hist_log_bucket_bound () =
  (* a percentile never under-reports and over-reports by < 1/16
     relative (one sub-bucket), clamped by the exact max *)
  let prng = Nd_util.Prng.create 7 in
  for _ = 1 to 200 do
    let v = 1 + Nd_util.Prng.int prng 1_000_000_000 in
    let h = Histogram.create () in
    Histogram.record h v;
    let p = Histogram.percentile h 0.5 in
    Alcotest.(check bool) "upper bound and clamped" true (p = v)
  done

let test_hist_merge () =
  let h1 = Histogram.create () and h2 = Histogram.create () in
  let all = Histogram.create () in
  let prng = Nd_util.Prng.create 11 in
  for i = 1 to 500 do
    let v = Nd_util.Prng.int prng 100_000 in
    Histogram.record (if i mod 2 = 0 then h1 else h2) v;
    Histogram.record all v
  done;
  let m = Histogram.create () in
  Histogram.merge ~into:m h1;
  Histogram.merge ~into:m h2;
  Alcotest.(check int) "count" (Histogram.count all) (Histogram.count m);
  Alcotest.(check int) "sum" (Histogram.sum all) (Histogram.sum m);
  Alcotest.(check int) "max" (Histogram.max_value all) (Histogram.max_value m);
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "p%g" (q *. 100.))
        (Histogram.percentile all q) (Histogram.percentile m q))
    [ 0.5; 0.9; 0.95; 0.99; 1.0 ]

(* regression for the stats_json race: worker domains used to record
   into bare histograms while the stats reader merged them unlocked, so
   a snapshot could catch a bucket increment before the count increment
   and report count <> sum of buckets.  With Histogram.Sync every
   snapshot must be internally consistent, and the final tally exact. *)
let test_hist_sync_hammer () =
  let n_writers = 4 and per = 20_000 in
  let h = Histogram.Sync.create () in
  let stop = Atomic.make false in
  let writers =
    List.init n_writers (fun w ->
        Domain.spawn (fun ()  ->
            let prng = Nd_util.Prng.create (0xbeef + w) in
            for _ = 1 to per do
              Histogram.Sync.record h (Nd_util.Prng.int prng 1_000_000)
            done))
  in
  let reader =
    Domain.spawn (fun () ->
        let checked = ref 0 in
        let check_once () =
          let s = Histogram.Sync.snapshot h in
          if Histogram.count s <> Histogram.bucket_total s then
            Alcotest.failf "torn snapshot: count %d <> bucket total %d"
              (Histogram.count s) (Histogram.bucket_total s);
          incr checked
        in
        (* at least one snapshot unconditionally: on a single-core host
           the writers can finish (and [stop] be set) before this domain
           is first scheduled, which used to fail the progress check *)
        check_once ();
        while not (Atomic.get stop) do
          check_once ()
        done;
        !checked)
  in
  List.iter Domain.join writers;
  Atomic.set stop true;
  let checked = Domain.join reader in
  Alcotest.(check bool) "reader made progress" true (checked > 0);
  let final = Histogram.Sync.snapshot h in
  Alcotest.(check int) "exact count" (n_writers * per) (Histogram.count final);
  Alcotest.(check int) "count = bucket total" (Histogram.count final)
    (Histogram.bucket_total final)

(* -------------------------- protocol codec -------------------------- *)

let wk : P.workload_key =
  { algo = "mm"; n = Some 16; base = Some 4; seed = 42; np = false }

let wk_min : P.workload_key =
  { algo = "fw1d"; n = None; base = None; seed = 7; np = true }

let all_requests : P.envelope list =
  [
    { id = 1; req = P.Ping };
    { id = 2; req = P.Lint wk };
    { id = 3; req = P.Lint wk_min };
    { id = 4; req = P.Race wk };
    { id = 5; req = P.Simulate { wk; top = 2; fine = true } };
    { id = 10; req = P.Analyze { wk; top = 2 } };
    { id = 11; req = P.Analyze { wk = wk_min; top = 1 } };
    { id = 6; req = P.Fuzz { count = 5; seed = 99; max_depth = 4 } };
    { id = 7; req = P.Suite { exp = "overview" } };
    { id = 8; req = P.Stats };
    { id = 9; req = P.Shutdown };
  ]

let all_responses : P.response list =
  [
    { id = 1; result = Ok (Json.Obj [ ("pong", Json.Bool true) ]) };
    { id = 2; result = Ok (Json.List [ Json.Int 1; Json.String "x" ]) };
    { id = 3; result = Error "unknown algorithm zz" };
  ]

let test_protocol_roundtrip () =
  List.iter
    (fun env ->
      let env' = P.request_of_json (P.request_to_json env) in
      Alcotest.(check bool)
        (Printf.sprintf "request %d round-trips" env.P.id)
        true (env = env'))
    all_requests;
  List.iter
    (fun r ->
      let r' = P.response_of_json (P.response_to_json r) in
      Alcotest.(check bool)
        (Printf.sprintf "response %d round-trips" r.P.id)
        true (r = r'))
    all_responses

let test_protocol_rejects () =
  let bad j =
    match P.request_of_json j with
    | exception P.Protocol_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing id" true
    (bad (Json.Obj [ ("kind", Json.String "ping") ]));
  Alcotest.(check bool) "unknown kind" true
    (bad (Json.Obj [ ("id", Json.Int 1); ("kind", Json.String "frobnicate") ]));
  Alcotest.(check bool) "non-object" true (bad (Json.List []));
  Alcotest.(check bool) "ill-typed field" true
    (bad
       (Json.Obj
          [
            ("id", Json.Int 1);
            ("kind", Json.String "lint");
            ("algo", Json.Int 3);
          ]))

(* ----------------------------- framing ------------------------------ *)

(* feed a byte string to a fresh decoder in chunks of [chunk] bytes and
   collect every decoded frame *)
let decode_chunked ?max_frame ~chunk s =
  let dec = Json.Frame.decoder ?max_frame () in
  let out = ref [] in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let k = min chunk (n - !i) in
    Json.Frame.feed dec (Bytes.of_string s) !i k;
    (* feed takes (bytes, off, len) against the full buffer *)
    i := !i + k;
    let rec drain () =
      match Json.Frame.next dec with
      | Some v ->
        out := v :: !out;
        drain ()
      | None -> ()
    in
    drain ()
  done;
  (List.rev !out, dec)

let test_frame_roundtrip_all_kinds () =
  let msgs =
    List.map P.request_to_json all_requests
    @ List.map P.response_to_json all_responses
  in
  let wire = String.concat "" (List.map Json.Frame.encode msgs) in
  List.iter
    (fun chunk ->
      let decoded, dec = decode_chunked ~chunk wire in
      Alcotest.(check int)
        (Printf.sprintf "all frames decode (chunk=%d)" chunk)
        (List.length msgs) (List.length decoded);
      Alcotest.(check int) "no leftover bytes" 0 (Json.Frame.pending dec);
      List.iter2
        (fun a b ->
          Alcotest.(check string) "frame payload" (Json.to_string a)
            (Json.to_string b))
        msgs decoded)
    [ 1; 3; 4096 ]

let test_frame_truncated () =
  let s = Json.Frame.encode (Json.Obj [ ("x", Json.Int 1) ]) in
  for cut = 0 to String.length s - 1 do
    let dec = Json.Frame.decoder () in
    Json.Frame.feed_string dec (String.sub s 0 cut);
    Alcotest.(check bool)
      (Printf.sprintf "truncated at %d yields no frame" cut)
      true
      (Json.Frame.next dec = None)
  done

let test_frame_oversized () =
  (* the header alone must trigger the limit, before any payload *)
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 1024l;
  let dec = Json.Frame.decoder ~max_frame:512 () in
  Json.Frame.feed dec hdr 0 4;
  Alcotest.check_raises "oversized header rejected"
    (Json.Frame.Error "frame length 1024 exceeds limit 512") (fun () ->
      ignore (Json.Frame.next dec))

let test_frame_malformed_payload () =
  let payload = "this is not json" in
  let b = Bytes.create (4 + String.length payload) in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length payload));
  Bytes.blit_string payload 0 b 4 (String.length payload);
  let dec = Json.Frame.decoder () in
  Json.Frame.feed dec b 0 (Bytes.length b);
  Alcotest.(check bool) "malformed payload raises" true
    (match Json.Frame.next dec with
    | exception Json.Frame.Error _ -> true
    | _ -> false)

let test_frame_random_bytes_no_crash =
  QCheck.Test.make ~count:500 ~name:"frame decoder total on random bytes"
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun s ->
      let dec = Json.Frame.decoder ~max_frame:64 () in
      Json.Frame.feed_string dec s;
      (* the decoder must either produce frames, want more bytes, or
         raise Frame.Error — nothing else, and it must terminate *)
      let rec drain n =
        if n > String.length s + 1 then false
        else
          match Json.Frame.next dec with
          | Some _ -> drain (n + 1)
          | None -> true
          | exception Json.Frame.Error _ -> true
      in
      drain 0)

(* ------------------------------ cache ------------------------------- *)

let test_cache_lru () =
  let c = Cache.create ~name:"t" ~cap:2 () in
  let computes = ref 0 in
  let get k =
    Cache.find_or_compute c k (fun () ->
        incr computes;
        k * 10)
  in
  Alcotest.(check int) "a" 10 (get 1);
  Alcotest.(check int) "b" 20 (get 2);
  Alcotest.(check int) "a cached" 10 (get 1);
  Alcotest.(check int) "computes" 2 !computes;
  (* inserting a third evicts the LRU entry, which is 2 *)
  ignore (get 3);
  Alcotest.(check bool) "2 evicted" true (Cache.find_opt c 2 = None);
  Alcotest.(check bool) "1 kept" true (Cache.find_opt c 1 = Some 10);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 3 (Cache.misses c);
  Alcotest.(check int) "evictions" 1 (Cache.evictions c)

(* single-flight: two domains racing find_or_compute on the same key
   must run the compute exactly once — the loser blocks on the in-flight
   marker and reads the winner's value.  The wait is a second use, so
   the value is kept under either admission rule. *)
let test_cache_single_flight_same_key admission () =
  let c = Cache.create ~name:"t" ~cap:4 ~admission () in
  let computes = Atomic.make 0 in
  let entered = Atomic.make 0 in
  let f () =
    Atomic.incr computes;
    (* a slow compute: give the second domain ample time to arrive and
       observe the Pending slot rather than racing past it *)
    Unix.sleepf 0.2;
    42
  in
  let worker () =
    Domain.spawn (fun () ->
        Atomic.incr entered;
        (* rendezvous so both domains request the key together *)
        while Atomic.get entered < 2 do
          Domain.cpu_relax ()
        done;
        Cache.find_or_compute c 7 f)
  in
  let a = worker () and b = worker () in
  let va = Domain.join a and vb = Domain.join b in
  Alcotest.(check int) "both read the value" 84 (va + vb);
  Alcotest.(check int) "compute ran once" 1 (Atomic.get computes);
  Alcotest.(check int) "one hit" 1 (Cache.hits c);
  Alcotest.(check int) "one miss" 1 (Cache.misses c);
  Alcotest.(check bool) "value kept" true (Cache.find_opt c 7 = Some 42)

(* distinct keys must not serialize behind each other's computes: the
   whole-cache lock is released while f runs, so two computes on
   different keys can be in flight at once.  Each side waits (bounded)
   for the other to enter its compute — under the old
   hold-the-lock-while-computing scheme this deadlocks the rendezvous
   and the assertion fails. *)
let test_cache_distinct_keys_overlap () =
  let c = Cache.create ~name:"t" ~cap:4 () in
  let in_flight = Atomic.make 0 in
  let saw_overlap = Atomic.make false in
  let compute k () =
    Atomic.incr in_flight;
    let deadline = Unix.gettimeofday () +. 2.0 in
    let rec wait () =
      if Atomic.get in_flight >= 2 then Atomic.set saw_overlap true
      else if Unix.gettimeofday () < deadline then begin
        Domain.cpu_relax ();
        wait ()
      end
    in
    wait ();
    Atomic.decr in_flight;
    k * 10
  in
  let run k = Domain.spawn (fun () -> Cache.find_or_compute c k (compute k)) in
  let a = run 1 and b = run 2 in
  Alcotest.(check int) "key 1" 10 (Domain.join a);
  Alcotest.(check int) "key 2" 20 (Domain.join b);
  Alcotest.(check bool) "computes overlapped" true (Atomic.get saw_overlap)

(* a compute that raises must clear the in-flight marker so the key is
   retryable (and waiters are not stranded) *)
let test_cache_failed_compute_retries () =
  let c = Cache.create ~name:"t" ~cap:4 () in
  Alcotest.(check bool) "first compute raises" true
    (match Cache.find_or_compute c 1 (fun () -> failwith "boom") with
    | exception Failure _ -> true
    | _ -> false);
  Alcotest.(check int) "retry succeeds" 11
    (Cache.find_or_compute c 1 (fun () -> 11));
  Alcotest.(check bool) "cached after retry" true
    (Cache.find_opt c 1 = Some 11)

(* second use: a key computed once goes to its caller and is only
   remembered; computed again, it is kept, and a third call hits *)
let test_cache_second_use () =
  let c = Cache.create ~name:"t" ~cap:2 ~admission:Cache.Second_use () in
  let computes = ref 0 in
  let get k =
    Cache.find_or_compute c k (fun () ->
        incr computes;
        k * 10)
  in
  Alcotest.(check int) "first use answered" 10 (get 1);
  Alcotest.(check bool) "first use not kept" true (Cache.find_opt c 1 = None);
  Alcotest.(check int) "nothing kept" 0 (Cache.length c);
  Alcotest.(check int) "one bypassed" 1 (Cache.bypassed c);
  Alcotest.(check int) "second use answered" 10 (get 1);
  Alcotest.(check bool) "second use kept" true (Cache.find_opt c 1 = Some 10);
  Alcotest.(check int) "third use answered" 10 (get 1);
  Alcotest.(check int) "third use hit" 1 (Cache.hits c);
  Alcotest.(check int) "two computes" 2 !computes;
  Alcotest.(check int) "still one bypassed" 1 (Cache.bypassed c)

(* the ghost list holds the last [cap] keys not kept: after [cap] other
   one-shot keys, the first key's second compute is a first use again *)
let test_cache_ghost_bounded () =
  let c = Cache.create ~name:"t" ~cap:2 ~admission:Cache.Second_use () in
  List.iter (fun k -> ignore (Cache.find_or_compute c k (fun () -> k))) [ 1; 2; 3; 1 ];
  Alcotest.(check bool) "1 bypassed again" true (Cache.find_opt c 1 = None);
  Alcotest.(check int) "nothing kept" 0 (Cache.length c);
  Alcotest.(check int) "four bypassed" 4 (Cache.bypassed c);
  ignore (Cache.find_or_compute c 3 (fun () -> 3));
  Alcotest.(check bool) "3 is still remembered" true (Cache.find_opt c 3 = Some 3)

let int_member name j =
  match Json.member name j with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.failf "no int %S in %s" name (Json.to_string j)

(* an offered value is kept if its key is free, counted by [offered]
   alone, and never replaces a value already there *)
let test_cache_offer () =
  let c = Cache.create ~name:"t" ~cap:2 () in
  Cache.offer c 1 10;
  Alcotest.(check int) "offered value answers" 10
    (Cache.find_or_compute c 1 (fun () -> Alcotest.fail "recomputed"));
  Cache.offer c 1 11;
  Alcotest.(check bool) "kept value not replaced" true (Cache.find_opt c 1 = Some 10);
  let j = Cache.stats_json c in
  Alcotest.(check (list int)) "hits, misses, offered" [ 1; 0; 1 ]
    (List.map (fun f -> int_member f j) [ "hits"; "misses"; "offered" ])

(* an offered entry enters at the cold end: it goes before any entry a
   caller used, offered entries go in the order they came, and a hit
   promotes one like any other *)
let test_cache_offer_cold () =
  let c = Cache.create ~name:"t" ~cap:2 () in
  let compute k = ignore (Cache.find_or_compute c k (fun () -> k * 10)) in
  compute 1;
  Cache.offer c 2 20;
  compute 3;
  Alcotest.(check bool) "offered 2 evicted" true (Cache.find_opt c 2 = None);
  Alcotest.(check bool) "used 1 kept" true (Cache.find_opt c 1 = Some 10);
  let c = Cache.create ~name:"t" ~cap:3 () in
  let compute k = ignore (Cache.find_or_compute c k (fun () -> k * 10)) in
  compute 1;
  Cache.offer c 2 20;
  Cache.offer c 3 30;
  compute 4;
  Alcotest.(check (list bool)) "first offered goes first" [ true; false; true; true ]
    (List.map (fun k -> Cache.find_opt c k <> None) [ 1; 2; 3; 4 ]);
  compute 3;
  compute 5;
  Alcotest.(check (list bool)) "a hit promotes an offered entry" [ false; true; true; true ]
    (List.map (fun k -> Cache.find_opt c k <> None) [ 1; 3; 4; 5 ])

(* torn snapshots: two domains compute while a third snapshots
   [stats_json]; every snapshot must satisfy the accounting identities
   (an insert is never visible without the miss that led to it).  The
   computing domains are restarted every round: a snapshot read
   without the lock tears mostly while domains start and stop. *)
let test_cache_snapshot_consistent () =
  let c = Cache.create ~name:"t" ~cap:4 ~admission:Cache.Second_use () in
  let rounds = 10 and per = 2_000 in
  let running = Atomic.make true in
  let snapshotter =
    Domain.spawn (fun () ->
        let taken = ref 0 and torn = ref None in
        while Atomic.get running && !torn = None do
          let j = Cache.stats_json c in
          let f name = int_member name j in
          if
            f "size" > f "cap"
            || f "size" + f "evictions" + f "bypassed" > f "misses"
          then torn := Some (Json.to_string j);
          incr taken
        done;
        (!taken, !torn))
  in
  for r = 1 to rounds do
    let computer seed =
      Domain.spawn (fun () ->
          let prng = Nd_util.Prng.create seed in
          for _ = 1 to per do
            let k = Nd_util.Prng.int prng 12 in
            ignore (Cache.find_or_compute c k (fun () -> k))
          done)
    in
    let a = computer (2 * r) and b = computer ((2 * r) + 1) in
    Domain.join a;
    Domain.join b
  done;
  Atomic.set running false;
  let taken, torn = Domain.join snapshotter in
  Option.iter (Alcotest.failf "torn snapshot %s") torn;
  if taken < 10 then Alcotest.failf "only %d snapshots taken" taken;
  let j = Cache.stats_json c in
  let f name = int_member name j in
  Alcotest.(check int) "every call a hit or a miss" (2 * rounds * per)
    (f "hits" + f "misses");
  Alcotest.(check int) "every miss kept or bypassed" (f "misses")
    (f "size" + f "evictions" + f "bypassed")

(* ---------------------- decompose thread-safety --------------------- *)

let test_decompose_hammer () =
  let w = Nd_algos.Matmul.workload ~n:32 ~base:4 ~seed:3 () in
  let p = Nd_algos.Workload.compile w in
  let ms = [ 1; 4; 16; 64; 256; 1024 ] in
  (* hammer the shared memo from several domains at once; single-flight
     memoization must hand every caller the same physical record *)
  let results =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.init 50 (fun _ ->
                List.map (fun m -> (m, Nd.Program.decompose p ~m)) ms)))
    |> List.concat_map Domain.join
    |> List.concat
  in
  List.iter
    (fun (m, d) ->
      let canonical = Nd.Program.decompose p ~m in
      if not (d == canonical) then
        Alcotest.failf "decompose m=%d returned a non-memoized copy" m;
      Alcotest.(check int) "m recorded" m d.Nd.Program.m)
    results;
  (* sanity: every decomposition covers all leaves *)
  List.iter
    (fun m ->
      let d = Nd.Program.decompose p ~m in
      Alcotest.(check bool)
        (Printf.sprintf "m=%d has tasks" m)
        true
        (Array.length d.Nd.Program.tasks > 0))
    ms

(* --------------------------- end-to-end ----------------------------- *)

(* each test gets its own socket in a fresh private directory, so tests
   (and concurrently running test processes) can never collide on a
   shared, pid-keyed path *)
let fresh_sock_path tag =
  let dir = Filename.temp_dir "ndsim-test" "" in
  Filename.concat dir (tag ^ ".sock")

let wait_for_socket path =
  let rec go n =
    if n = 0 then Alcotest.fail "server socket never appeared";
    if not (Sys.file_exists path) then begin
      Unix.sleepf 0.05;
      go (n - 1)
    end
  in
  go 200

let member_exn name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Json.to_string j)

let test_server_end_to_end () =
  let sock_path = fresh_sock_path "e2e" in
  let cfg =
    {
      (Server.default_config (P.Unix_path sock_path)) with
      Server.quiet = true;
    }
  in
  let server = Thread.create (fun () -> Server.run cfg) () in
  wait_for_socket sock_path;
  let conn = Client.connect (P.Unix_path sock_path) in
  (* ping *)
  let pong = Client.call_exn conn P.Ping in
  Alcotest.(check bool) "pong" true (member_exn "pong" pong = Json.Bool true);
  (* lint a clean workload, twice: the second hit must come from cache *)
  let lint1 = Client.call_exn conn (P.Lint wk) in
  Alcotest.(check bool) "lint clean" true
    (member_exn "errors" lint1 = Json.Int 0);
  let lint2 = Client.call_exn conn (P.Lint wk) in
  Alcotest.(check string) "lint deterministic" (Json.to_string lint1)
    (Json.to_string lint2);
  (* race verdict *)
  let race = Client.call_exn conn (P.Race wk) in
  Alcotest.(check bool) "race-free" true
    (member_exn "race_free" race = Json.Bool true);
  (* SB simulation *)
  let sim = Client.call_exn conn (P.Simulate { wk; top = 1; fine = false }) in
  (match member_exn "time" sim with
  | Json.Int t when t > 0 -> ()
  | j -> Alcotest.failf "bad simulate time: %s" (Json.to_string j));
  (* structural cost analysis: report + Theorem-1 certification *)
  let ana = Client.call_exn conn (P.Analyze { wk; top = 1 }) in
  let report = member_exn "report" ana in
  (match member_exn "work" report with
  | Json.Int w when w > 0 -> ()
  | j -> Alcotest.failf "bad analyze work: %s" (Json.to_string j));
  (match member_exn "certified" (member_exn "certification" ana) with
  | Json.Bool true -> ()
  | j -> Alcotest.failf "mm not certified: %s" (Json.to_string j));
  let ana2 = Client.call_exn conn (P.Analyze { wk; top = 1 }) in
  Alcotest.(check string) "analyze deterministic" (Json.to_string ana)
    (Json.to_string ana2);
  (* errors come back as error responses, not dead connections *)
  (match
     (Client.call conn (P.Lint { wk with algo = "nope" })).P.result
   with
  | Error msg ->
    Alcotest.(check bool) "unknown algo mentions name" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "lint of unknown algorithm succeeded");
  (* the pool is intact for the next request *)
  Alcotest.(check bool) "pool alive after error" true
    (member_exn "race_free" (Client.call_exn conn (P.Race wk))
    = Json.Bool true);
  (* a pipelined burst through the pool, led by a fuzz request: the
     oracle runs its backends and schedule explorer inside a pool fiber
     (a fiber program run, a worker crew nested on a pool worker
     domain) while the other workers serve the lints; every id is
     answered *)
  let fuzz_id =
    Client.send conn (P.Fuzz { count = 3; seed = 17; max_depth = 3 })
  in
  let ids = List.init 50 (fun _ -> Client.send conn (P.Lint wk)) in
  let replies = List.init 51 (fun _ -> Client.recv conn) in
  Alcotest.(check (list int)) "burst ids all answered"
    (List.sort compare (fuzz_id :: ids))
    (List.sort compare (List.map (fun (r : P.response) -> r.P.id) replies));
  let fuzz = List.find (fun (r : P.response) -> r.P.id = fuzz_id) replies in
  (match fuzz.P.result with
  | Ok fuzz ->
    Alcotest.(check bool) "fuzz cases pass" true
      (member_exn "failures" fuzz = Json.Int 0)
  | Error e -> Alcotest.failf "fuzz failed: %s" e);
  (* stats: lint cache must show at least one hit, histograms nonzero *)
  let stats = Client.call_exn conn P.Stats in
  let lint_cache =
    Json.to_list (member_exn "caches" stats)
    |> List.find (fun c -> member_exn "name" c = Json.String "lint")
  in
  (match member_exn "hits" lint_cache with
  | Json.Int h when h >= 1 -> ()
  | j -> Alcotest.failf "lint cache hits: %s" (Json.to_string j));
  (* the second analyze call above must have hit the analyze cache *)
  let cost_cache =
    Json.to_list (member_exn "caches" stats)
    |> List.find (fun c -> member_exn "name" c = Json.String "analyze")
  in
  (match member_exn "hits" cost_cache with
  | Json.Int h when h >= 1 -> ()
  | j -> Alcotest.failf "analyze cache hits: %s" (Json.to_string j));
  (* one histogram per kind, whichever thread or worker answered: 53
     lints, the last of which may record just after its reply *)
  (match member_exn "count" (member_exn "lint" (member_exn "latency_ns" stats))
   with
  | Json.Int c when c >= 52 -> ()
  | j -> Alcotest.failf "lint latency count: %s" (Json.to_string j));
  let fp = member_exn "fiber_pool" stats in
  (match (member_exn "started" fp, member_exn "workers" fp) with
  | Json.Int s, Json.Int w when s >= 1 && s <= w -> ()
  | s, w ->
    Alcotest.failf "fiber pool started %s of %s workers" (Json.to_string s)
      (Json.to_string w));
  (* 59 pooled requests: 6 before the failing lint, it, 1 after, 50 in
     the burst and the fuzz *)
  (match member_exn "fibers" fp with
  | Json.Int n when n >= 59 -> ()
  | j -> Alcotest.failf "fiber count too low: %s" (Json.to_string j));
  (* handler errors are protocol-level responses, not fiber errors *)
  Alcotest.(check bool) "no fiber-level errors" true
    (member_exn "errors" fp = Json.Int 0);
  (* pipelined burst: ids must all come back *)
  let ids = List.init 20 (fun _ -> Client.send conn P.Ping) in
  let got = List.init 20 (fun _ -> (Client.recv conn).P.id) in
  Alcotest.(check bool) "pipelined ids all answered" true
    (List.sort compare ids = List.sort compare got);
  (* shutdown: acknowledged, then the daemon exits and cleans up *)
  let bye = Client.call_exn conn P.Shutdown in
  Alcotest.(check bool) "stopping" true
    (member_exn "stopping" bye = Json.Bool true);
  Client.close conn;
  Thread.join server;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock_path)

(* The server's one pool: [NDSIM_WORKERS] sizes it, as it sizes every
   other runtime entry point, and no worker starts before a request
   needs the pool; pings and stats are answered inline. *)
let test_server_pool_on_demand () =
  let sock_path = fresh_sock_path "ondemand" in
  let cfg =
    { (Server.default_config (P.Unix_path sock_path)) with Server.quiet = true }
  in
  let saved = Sys.getenv_opt "NDSIM_WORKERS" in
  Unix.putenv "NDSIM_WORKERS" "3";
  let server =
    Fun.protect
      ~finally:(fun () ->
        (* an empty value reads as unset *)
        Unix.putenv "NDSIM_WORKERS" (Option.value saved ~default:""))
      (fun () ->
        let server = Thread.create (fun () -> Server.run cfg) () in
        wait_for_socket sock_path;
        server)
  in
  let conn = Client.connect (P.Unix_path sock_path) in
  let pool () = member_exn "fiber_pool" (Client.call_exn conn P.Stats) in
  ignore (Client.call_exn conn P.Ping);
  let fp = pool () in
  Alcotest.(check bool) "NDSIM_WORKERS sizes the pool" true
    (member_exn "workers" fp = Json.Int 3);
  Alcotest.(check bool) "no worker before a pooled request" true
    (member_exn "started" fp = Json.Int 0);
  Alcotest.(check bool) "lint clean" true
    (member_exn "errors" (Client.call_exn conn (P.Lint wk)) = Json.Int 0);
  let fp = pool () in
  Alcotest.(check bool) "one request, one worker" true
    (member_exn "started" fp = Json.Int 1);
  Alcotest.(check bool) "one fiber" true (member_exn "fibers" fp = Json.Int 1);
  ignore (Client.call_exn conn P.Shutdown);
  Client.close conn;
  Thread.join server;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock_path)

(* [f conn] against a fresh quiet server on its own socket, then a
   clean shutdown *)
let with_server tag f =
  let sock_path = fresh_sock_path tag in
  let cfg =
    { (Server.default_config (P.Unix_path sock_path)) with Server.quiet = true }
  in
  let server = Thread.create (fun () -> Server.run cfg) () in
  wait_for_socket sock_path;
  let conn = Client.connect (P.Unix_path sock_path) in
  let result = f conn in
  ignore (Client.call_exn conn P.Shutdown);
  Client.close conn;
  Thread.join server;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock_path);
  result

(* the named cache's [fields] in a fresh [stats] reply *)
let counters conn name fields =
  let c =
    Json.to_list (member_exn "caches" (Client.call_exn conn P.Stats))
    |> List.find (fun c -> member_exn "name" c = Json.String name)
  in
  List.map (fun f -> int_member f c) fields

(* A lint request lints the program the server caches for its key: the
   ND tree, or with [np] its fire-serialized projection.  That
   projection has no fire left to recover span, so mm n=8 keeps the
   golden ND007 warning in ND mode only. *)
let test_server_lint_np () =
  with_server "lintnp" (fun conn ->
      let lint np =
        let r =
          Client.call_exn conn (P.Lint { wk with n = Some 8; base = Some 2; np })
        in
        let ids =
          match member_exn "findings" r with
          | Json.List fs -> List.map (fun f -> member_exn "id" f) fs
          | j -> Alcotest.failf "findings: %s" (Json.to_string j)
        in
        (member_exn "warnings" r, ids)
      in
      let warnings, ids = lint false in
      Alcotest.(check bool) "ND: one warning" true (warnings = Json.Int 1);
      Alcotest.(check bool) "ND: it is ND007" true (ids = [ Json.String "ND007" ]);
      let warnings, ids = lint true in
      Alcotest.(check bool) "NP: no warning" true (warnings = Json.Int 0);
      Alcotest.(check bool) "NP: no finding" true (ids = []))

let small_wk seed = { wk with n = Some 8; base = Some 2; seed }

(* one-shot keys pin no program: 20 requests on distinct seeds, each
   key asked once, leave the programs cache empty without evicting *)
let test_server_one_shot_keys () =
  with_server "oneshot" (fun conn ->
      for i = 0 to 19 do
        let w = small_wk (100 + i) in
        ignore
          (Client.call_exn conn
             (match i mod 3 with
             | 0 -> P.Lint w
             | 1 -> P.Analyze { wk = w; top = 1 }
             | _ -> P.Simulate { wk = w; top = 1; fine = false }))
      done;
      Alcotest.(check (list int)) "programs size, evictions, bypassed"
        [ 0; 0; 20 ]
        (counters conn "programs" [ "size"; "evictions"; "bypassed" ]))

(* A lint files the race reply of the ESP pass it ran, so a race
   request after it compiles nothing and hits — with the very reply a
   race request computes on a fresh server.  analyze then compiles the
   key a second time, which keeps the program, and files the simulate
   reply of the coarse SB run its certificate made: a coarse simulate
   after it reads no program and hits, with the reply a simulate
   request computes on a fresh server, while a fine one still
   computes. *)
let test_server_lint_files_race () =
  let w = small_wk 5 in
  let coarse = P.Simulate { wk = w; top = 1; fine = false } in
  let sim_first, race_first =
    with_server "first" (fun conn ->
        let sim = Client.call_exn conn coarse in
        (sim, Client.call_exn conn (P.Race w)))
  in
  with_server "lintrace" (fun conn ->
      Alcotest.(check bool) "lint clean" true
        (member_exn "errors" (Client.call_exn conn (P.Lint w)) = Json.Int 0);
      let misses () = counters conn "programs" [ "misses" ] in
      let compiled = misses () in
      let race = Client.call_exn conn (P.Race w) in
      Alcotest.(check (list int)) "race compiled nothing" compiled (misses ());
      Alcotest.(check (list int)) "race hits, misses, offered" [ 1; 0; 1 ]
        (counters conn "race" [ "hits"; "misses"; "offered" ]);
      Alcotest.(check string) "race reply as a race request computes it"
        (Json.to_string race_first) (Json.to_string race);
      ignore (Client.call_exn conn (P.Analyze { wk = w; top = 1 }));
      let sim = Client.call_exn conn coarse in
      Alcotest.(check (list int)) "simulate hits, misses, offered" [ 1; 0; 1 ]
        (counters conn "simulate" [ "hits"; "misses"; "offered" ]);
      Alcotest.(check string) "simulate reply as a simulate request computes it"
        (Json.to_string sim_first) (Json.to_string sim);
      Alcotest.(check (list int)) "programs size, misses, hits, bypassed"
        [ 1; 2; 0; 1 ]
        (counters conn "programs" [ "size"; "misses"; "hits"; "bypassed" ]);
      ignore (Client.call_exn conn (P.Simulate { wk = w; top = 1; fine = true }));
      Alcotest.(check (list int)) "fine simulate misses" [ 1; 1; 1 ]
        (counters conn "simulate" [ "hits"; "misses"; "offered" ]))

(* Shutdown under load: 40 lint requests pipelined over two connections,
   a shutdown on one, then 10 more lints on the other.  Every request
   is answered exactly once: a lint either runs, or arrives after the
   pool has closed and is refused.  The server still returns. *)
let test_shutdown_under_load () =
  let sock_path = fresh_sock_path "drain" in
  let cfg =
    { (Server.default_config (P.Unix_path sock_path)) with Server.quiet = true }
  in
  let returned = Atomic.make false in
  let server =
    Thread.create
      (fun () ->
        Server.run cfg;
        Atomic.set returned true)
      ()
  in
  wait_for_socket sock_path;
  let conns = Array.init 2 (fun _ -> Client.connect (P.Unix_path sock_path)) in
  let sent = Array.make 2 [] in
  let send c req = sent.(c) <- (Client.send conns.(c) req, req) :: sent.(c) in
  (* eight keys, so the pool still has compiles to run *)
  let lint i = P.Lint { wk with seed = i mod 8 } in
  for i = 0 to 39 do
    send (i mod 2) (lint i)
  done;
  send 0 P.Shutdown;
  for i = 40 to 49 do
    send 1 (lint i)
  done;
  let within_30s cond =
    let deadline = Unix.gettimeofday () +. 30. in
    while (not (cond ())) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done;
    cond ()
  in
  (* a lost reply must fail the test, not hang it: read on threads *)
  let replies = Array.make 2 [] and lock = Mutex.create () in
  let readers =
    Array.mapi
      (fun c conn ->
        Thread.create
          (fun () ->
            for _ = 1 to List.length sent.(c) do
              let r = Client.recv conn in
              Mutex.protect lock (fun () -> replies.(c) <- r :: replies.(c))
            done)
          ())
      conns
  in
  Alcotest.(check bool) "Server.run returned within 30 s" true
    (within_30s (fun () -> Atomic.get returned));
  Thread.join server;
  let all_in () =
    Mutex.protect lock (fun () ->
        Array.for_all2
          (fun r s -> List.length r = List.length s)
          replies sent)
  in
  if not (within_30s all_in) then
    Alcotest.failf "replies missing: %d of %d and %d of %d"
      (List.length replies.(0)) (List.length sent.(0))
      (List.length replies.(1)) (List.length sent.(1));
  Array.iter Thread.join readers;
  Array.iteri
    (fun c conn ->
      let ids = List.map (fun (r : P.response) -> r.P.id) replies.(c) in
      Alcotest.(check (list int))
        (Printf.sprintf "connection %d: each id answered once" c)
        (List.sort compare (List.map fst sent.(c)))
        (List.sort compare ids);
      List.iter
        (fun (r : P.response) ->
          match (List.assoc r.P.id sent.(c), r.P.result) with
          | P.Lint _, (Ok _ | Error "server shutting down") | P.Shutdown, Ok _
            ->
            ()
          | _, Ok j -> Alcotest.failf "unexpected reply %s" (Json.to_string j)
          | _, Error e -> Alcotest.failf "unexpected error %s" e)
        replies.(c);
      (* nothing trails: the next reply on the connection is a ping's *)
      let id = Client.send conn P.Ping in
      Alcotest.(check int) "no reply after the last" id (Client.recv conn).P.id;
      Client.close conn)
    conns;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock_path)

(* regression for the shared-socket-path isolation bug: two servers in
   the same process (or two test processes on one machine) must be able
   to run side by side, each on its own temp-dir socket, without one
   accepting the other's clients or unlinking the other's socket *)
let test_two_servers_coexist () =
  let start tag =
    let path = fresh_sock_path tag in
    let cfg =
      {
        (Server.default_config (P.Unix_path path)) with
        Server.quiet = true;
      }
    in
    let thread = Thread.create (fun () -> Server.run cfg) () in
    wait_for_socket path;
    (path, thread)
  in
  let path_a, thread_a = start "a" in
  let path_b, thread_b = start "b" in
  Alcotest.(check bool) "distinct sockets" false (path_a = path_b);
  let conn_a = Client.connect (P.Unix_path path_a) in
  let conn_b = Client.connect (P.Unix_path path_b) in
  Alcotest.(check bool) "a pongs" true
    (member_exn "pong" (Client.call_exn conn_a P.Ping) = Json.Bool true);
  Alcotest.(check bool) "b pongs" true
    (member_exn "pong" (Client.call_exn conn_b P.Ping) = Json.Bool true);
  (* shutting down a must leave b serving on its own socket *)
  ignore (Client.call_exn conn_a P.Shutdown);
  Client.close conn_a;
  Thread.join thread_a;
  Alcotest.(check bool) "a unlinked" false (Sys.file_exists path_a);
  Alcotest.(check bool) "b still listening" true (Sys.file_exists path_b);
  Alcotest.(check bool) "b still pongs" true
    (member_exn "pong" (Client.call_exn conn_b P.Ping) = Json.Bool true);
  ignore (Client.call_exn conn_b P.Shutdown);
  Client.close conn_b;
  Thread.join thread_b;
  Alcotest.(check bool) "b unlinked" false (Sys.file_exists path_b)

let () =
  Alcotest.run "nd_serve"
    [
      ( "histogram",
        [
          Alcotest.test_case "exact small values" `Quick test_hist_exact_small;
          Alcotest.test_case "log-bucket bound" `Quick
            test_hist_log_bucket_bound;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "sync hammer" `Quick test_hist_sync_hammer;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "round-trip all kinds" `Quick
            test_protocol_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_protocol_rejects;
        ] );
      ( "framing",
        [
          Alcotest.test_case "round-trip chunked" `Quick
            test_frame_roundtrip_all_kinds;
          Alcotest.test_case "truncated" `Quick test_frame_truncated;
          Alcotest.test_case "oversized" `Quick test_frame_oversized;
          Alcotest.test_case "malformed payload" `Quick
            test_frame_malformed_payload;
          QCheck_alcotest.to_alcotest test_frame_random_bytes_no_crash;
        ] );
      ( "cache",
        [
          Alcotest.test_case "keyed lru" `Quick test_cache_lru;
          Alcotest.test_case "single-flight same key" `Quick
            (test_cache_single_flight_same_key Cache.Always);
          Alcotest.test_case "distinct keys overlap" `Quick
            test_cache_distinct_keys_overlap;
          Alcotest.test_case "failed compute retries" `Quick
            test_cache_failed_compute_retries;
          Alcotest.test_case "second use admits" `Quick test_cache_second_use;
          Alcotest.test_case "second use: racing callers keep the value" `Quick
            (test_cache_single_flight_same_key Cache.Second_use);
          Alcotest.test_case "second use: ghost list bounded" `Quick
            test_cache_ghost_bounded;
          Alcotest.test_case "offer" `Quick test_cache_offer;
          Alcotest.test_case "offer enters cold" `Quick test_cache_offer_cold;
          Alcotest.test_case "snapshots consistent under load" `Quick
            test_cache_snapshot_consistent;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "multi-domain hammer" `Quick test_decompose_hammer;
        ] );
      ( "server",
        [
          Alcotest.test_case "end-to-end" `Quick test_server_end_to_end;
          Alcotest.test_case "pool sized by NDSIM_WORKERS, started on demand"
            `Quick test_server_pool_on_demand;
          Alcotest.test_case "lint honours np" `Quick test_server_lint_np;
          Alcotest.test_case "one-shot keys pin no program" `Quick
            test_server_one_shot_keys;
          Alcotest.test_case "lint files the race reply" `Quick
            test_server_lint_files_race;
          Alcotest.test_case "shutdown under load" `Quick
            test_shutdown_under_load;
          Alcotest.test_case "two servers coexist" `Quick
            test_two_servers_coexist;
        ] );
    ]
