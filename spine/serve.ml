(* The analysis daemon under load: a child server with its default
   configuration, driven over a unix socket by at most two client
   threads on two connections.

   serve-hot: an open loop at a fixed rate, then a closed loop, over
   eight pre-warmed keys, so every request is a cache hit and the wire
   codec, the reader threads, dispatch and the cache-hit path do all the
   work.

   serve-cold: a closed loop of mostly fresh keys, so the same caches run
   their miss, insert and evict paths and compute goes through the
   server's pools. *)

open Common
module Span = Spine_lib.Span
module Stats = Spine_lib.Stats
module Due = Spine_lib.Due
module P = Nd_serve.Protocol
module Client = Nd_serve.Client
module Prng = Nd_util.Prng
module Workloads = Nd_experiments.Workloads

(* ------------------------------ server ----------------------------- *)

(* the child runs this executable's [__serve] entry point *)
let serve_main path =
  Nd_serve.Server.run
    { (Nd_serve.Server.default_config (P.Unix_path path)) with quiet = true }

type server = { pid : int; path : string }

let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (waitpid_retry pid) with Unix.Unix_error _ -> ())
        !live)

let n_started = ref 0

let running pid = fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0

(* relative socket path: stays inside the working directory and well
   under the sun_path limit *)
let start_server () =
  incr n_started;
  let path = Printf.sprintf "spine-%d-%d.sock" (Unix.getpid ()) !n_started in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "__serve"; path |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  let deadline = now_ns () + 30_000_000_000 in
  let rec wait () =
    match Client.connect (P.Unix_path path) with
    | c -> Client.close c
    | exception Unix.Unix_error _ ->
      if not (running pid) then begin
        live := List.filter (( <> ) pid) !live;
        failwith "server exited during start-up"
      end;
      if now_ns () > deadline then failwith "server did not come up";
      Unix.sleepf 0.002;
      wait ()
  in
  wait ();
  { pid; path }

let stop_server s =
  (try
     let c = Client.connect (P.Unix_path s.path) in
     ignore (Client.call c P.Shutdown);
     Client.close c
   with Unix.Unix_error _ | End_of_file | Failure _ -> ());
  let deadline = now_ns () + 10_000_000_000 in
  let rec wait () =
    if running s.pid then
      if now_ns () > deadline then begin
        Unix.kill s.pid Sys.sigkill;
        ignore (waitpid_retry s.pid)
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
  in
  wait ();
  live := List.filter (( <> ) s.pid) !live;
  try Unix.unlink s.path with Unix.Unix_error _ -> ()

(* the [stats] reply and the server's peak RSS, then shut it down *)
let finish_server s =
  let c = Client.connect (P.Unix_path s.path) in
  let stats = Client.call_exn c P.Stats in
  Client.close c;
  let rss = peak_rss_mb (string_of_int s.pid) in
  stop_server s;
  (stats, rss)

(* ------------------------- request helpers -------------------------- *)

let member path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let num path j =
  match member path j with
  | Some v -> ( try Json.to_number v with Json.Parse_error _ -> 0.)
  | None -> 0.

(* the checks a reply must pass beyond being [Ok] *)
let sound (req : P.request) payload =
  let is path v = member path payload = Some v in
  match req with
  | P.Lint _ -> is [ "errors" ] (Json.Int 0)
  | P.Race _ -> is [ "race_free" ] (Json.Bool true)
  | P.Analyze _ -> is [ "certification"; "certified" ] (Json.Bool true)
  | P.Simulate _ -> num [ "work" ] payload > 0.
  | P.Fuzz _ -> is [ "failures" ] (Json.Int 0)
  | P.Ping -> is [ "pong" ] (Json.Bool true)
  | P.Suite _ | P.Stats | P.Shutdown -> true

let workload_key (algo, n) seed = { P.algo; n = Some n; base = None; seed; np = false }

let request kind wk =
  match kind with
  | "ping" -> P.Ping
  | "lint" -> P.Lint wk
  | "race" -> P.Race wk
  | "analyze" -> P.Analyze { wk; top = 1 }
  | "simulate" -> P.Simulate { wk; top = 1; fine = false }
  | k -> invalid_arg ("Serve.request: " ^ k)

(* growable int buffer *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let append ~into v =
    for i = 0 to v.n - 1 do
      push into v.a.(i)
    done

  let to_floats ?(scale = 1.) v =
    Array.init v.n (fun i -> float_of_int v.a.(i) *. scale)
end

(* ---------------------------- per-layer ----------------------------- *)

let us_of_ns x = x /. 1e3

(* frame encode / decode of one captured reply: median over batches *)
let codec_us (resp : P.response) =
  let per f =
    Stats.median
      (Array.init 21 (fun _ ->
           let t0 = now_ns () in
           for _ = 1 to 50 do
             f ()
           done;
           float_of_int (now_ns () - t0) /. 50.))
  in
  let frame = Json.Frame.encode (P.response_to_json resp) in
  let enc = per (fun () -> ignore (Json.Frame.encode (P.response_to_json resp))) in
  let dec =
    per (fun () ->
        let d = Json.Frame.decoder () in
        Json.Frame.feed_string d frame;
        Option.iter (fun j -> ignore (P.response_of_json j)) (Json.Frame.next d))
  in
  (us_of_ns enc, us_of_ns dec)

let mean_ns (t : Span.total) =
  if t.count = 0 then 0. else float_of_int t.total_ns /. float_of_int t.count

(* the serve.* and util.frame.* metrics: server-side numbers from the
   [stats] reply, client-side means from the request spans, codec
   timings on one captured reply per kind *)
let layers ~stats ~captured =
  let named field =
    match member [ field ] stats with
    | Some (Json.List l) ->
      List.filter_map
        (fun o ->
          match member [ "name" ] o with
          | Some (Json.String n) -> Some (n, o)
          | _ -> None)
        l
    | _ -> []
  in
  let caches = named "caches" and pools = named "pools" in
  let field_of table name path =
    match List.assoc_opt name table with Some o -> num path o | None -> 0.
  in
  let per_kind k =
    let client = mean_ns (Span.total ("serve.request." ^ k)) in
    let enc, dec =
      match List.assoc_opt k captured with Some r -> codec_us r | None -> (0., 0.)
    in
    let server q = us_of_ns (num [ "latency_ns"; k; q ] stats) in
    [
      ("util.frame.encode_us." ^ k, enc);
      ("util.frame.decode_us." ^ k, dec);
      ( "serve.wire." ^ k ^ ".mean_us",
        if client > 0. then us_of_ns client -. server "mean" else 0. );
      ("serve.server." ^ k ^ ".p50_us", server "p50");
      ("serve.server." ^ k ^ ".p99_us", server "p99");
    ]
  in
  List.concat_map per_kind Layers.kinds
  @ [ ("serve.client.send_us", us_of_ns (mean_ns (Span.total "serve.client.send"))) ]
  @ List.concat_map
      (fun c ->
        let hits = field_of caches c [ "hits" ]
        and misses = field_of caches c [ "misses" ] in
        [
          ( "serve.cache." ^ c ^ ".hit_ratio",
            if hits +. misses > 0. then hits /. (hits +. misses) else 0. );
          ("serve.cache." ^ c ^ ".evictions", field_of caches c [ "evictions" ]);
        ])
      Layers.caches
  @ List.map
      (fun p -> ("serve.pool." ^ p ^ ".executed", field_of pools p [ "executed" ]))
      Layers.pools

(* ================================ hot =============================== *)

module Hot = struct
  let name = "serve-hot"

  (* lint:race:analyze:simulate:ping = 2:1:1:1:1, interleaved *)
  let cycle = [| "lint"; "race"; "analyze"; "simulate"; "ping"; "lint" |]

  let fixed_rate = 10_000.

  (* a request still unanswered this long after its phase ends is lost *)
  let grace_ns = 1_000_000_000

  (* one in [sample] replies is compared with its warm-up answer *)
  let sample = 100

  type state = {
    seed : int;
    server : server;
    requests : P.request array array;  (** [kind index].(key) *)
    expected : (Json.t, string) result array array;
    warm_attempted : int;
    warm_failed : int;
  }

  let shapes (ctx : ctx) =
    if ctx.smoke then [ ("mm", 8); ("lcs", 32) ]
    else
      [
        ("mm", 16); ("trs", 16); ("cholesky", 16); ("lu", 16);
        ("apsp", 16); ("fw1d", 64); ("lcs", 64); ("gotoh", 64);
      ]

  let setup (ctx : ctx) =
    let rng = Prng.create ctx.seed in
    let keys =
      List.map (fun s -> workload_key s (Prng.int rng 1_000_000)) (shapes ctx)
    in
    let server = start_server () in
    let requests =
      Array.map (fun k -> Array.of_list (List.map (request k) keys)) cycle
    in
    let c = Client.connect (P.Unix_path server.path) in
    let failed = ref 0 in
    let expected =
      Array.map
        (Array.map (fun req ->
             match (Client.call c req).P.result with
             | Ok j when sound req j -> Ok j
             | Ok _ ->
               incr failed;
               Error "unsound warm-up reply"
             | Error e ->
               incr failed;
               Error e))
        requests
    in
    Client.close c;
    {
      seed = ctx.seed;
      server;
      requests;
      expected;
      warm_attempted = Array.length cycle * List.length keys;
      warm_failed = !failed;
    }

  let teardown st = stop_server st.server

  (* a non-blocking connection of our own: the open loop must wait on a
     reply and a send deadline at once, and a blocked write must never
     stop it from reading (the server answers ping inline on its reader
     thread, so two full socket buffers would deadlock) *)
  type conn = {
    fd : Unix.file_descr;
    dec : Json.Frame.decoder;
    buf : Bytes.t;
    out : Buffer.t;  (** bytes the socket did not take yet *)
    mutable next_id : int;
  }

  let connect path =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    Unix.connect fd (ADDR_UNIX path);
    Unix.set_nonblock fd;
    {
      fd;
      dec = Json.Frame.decoder ();
      buf = Bytes.create 65536;
      out = Buffer.create 4096;
      next_id = 1;
    }

  (* write what the socket takes now; keep the rest *)
  let push c s =
    let len = String.length s in
    let rec go off =
      if off >= len then len
      else
        match Unix.write_substring c.fd s off (len - off) with
        | k -> go (off + k)
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> off
    in
    let off = go 0 in
    if off < len then Buffer.add_substring c.out s off (len - off)

  let flush c =
    if Buffer.length c.out > 0 then begin
      let s = Buffer.contents c.out in
      Buffer.clear c.out;
      push c s
    end

  let send c s = if Buffer.length c.out > 0 then Buffer.add_string c.out s else push c s

  type tally = {
    lat : Vec.t;  (** open loop: ns from due to reply *)
    late : Vec.t;  (** open loop: ns the send lagged its due time *)
    mutable completed : int;  (** closed loop: replies before its end *)
    mutable sent : int;
    mutable failed : int;
  }

  (* how a phase sends: [Open] on a schedule, request [k < n] due at
     [start + k / rate]; [Closed] keeping one request in flight on each
     connection until [until_ns] *)
  type pacing = Open of { rate : float; n : int } | Closed of { until_ns : int }

  (* one phase on both connections from this one thread (no second
     client thread to contend with for the runtime lock): request [k]
     goes to connection [k mod 2]; once sending is over, wait for the
     replies until [stop_ns] *)
  let drive st ~conns ~rng ~pacing ~start_ns ~stop_ns t =
    let pending = Array.map (fun _ -> Due.create ()) conns in
    let n_keys = Array.length st.requests.(0) in
    let k = ref 0 in
    let send_one ~due_ns =
      let kk = !k in
      let conn = conns.(kk mod 2) in
      let ki = kk mod Array.length cycle and key = Prng.int rng n_keys in
      let id = conn.next_id in
      conn.next_id <- id + 1;
      let t0 = now_ns () in
      send conn
        (Json.Frame.encode (P.request_to_json { P.id; req = st.requests.(ki).(key) }));
      Span.record ~op:kk "serve.client.send" ~start_ns:t0 ~stop_ns:(now_ns ());
      Due.sent pending.(kk mod 2) ~id ~due_ns ~sent_ns:t0 (ki, key, kk);
      t.sent <- t.sent + 1;
      incr k
    in
    let on_reply c now (r : P.response) =
      match Due.answered pending.(c) ~id:r.P.id ~now_ns:now with
      | None -> t.failed <- t.failed + 1
      | Some { Due.latency_ns; late_ns; wire_ns; tag = ki, key, kk } ->
        Span.record ~op:kk ("serve.request." ^ cycle.(ki))
          ~start_ns:(now - wire_ns) ~stop_ns:now;
        (match r.P.result with
        | Ok j when kk mod sample <> 0 || st.expected.(ki).(key) = Ok j -> ()
        | Ok _ | Error _ -> t.failed <- t.failed + 1);
        match pacing with
        | Open _ ->
          Vec.push t.lat latency_ns;
          Vec.push t.late late_ns
        | Closed { until_ns } ->
          if now < until_ns then begin
            t.completed <- t.completed + 1;
            send_one ~due_ns:(now_ns ())
          end
    in
    let read c =
      let conn = conns.(c) in
      let got = Unix.read conn.fd conn.buf 0 (Bytes.length conn.buf) in
      if got = 0 then raise End_of_file;
      Json.Frame.feed conn.dec conn.buf 0 got;
      let now = now_ns () in
      let rec drain () =
        match Json.Frame.next conn.dec with
        | Some j ->
          on_reply c now (P.response_of_json j);
          drain ()
        | None -> ()
      in
      drain ()
    in
    let outstanding () = Array.fold_left (fun a p -> a + Due.outstanding p) 0 pending in
    let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
    let rec loop () =
      let now = now_ns () in
      (* the next send deadline, if sending is not over *)
      let next =
        match pacing with
        | Open { rate; n } ->
          while !k < n && Due.due_ns ~start_ns ~rate !k <= now do
            send_one ~due_ns:(Due.due_ns ~start_ns ~rate !k)
          done;
          if !k < n then Some (Due.due_ns ~start_ns ~rate !k) else None
        | Closed { until_ns } -> if now < until_ns then Some until_ns else None
      in
      if next <> None || (outstanding () > 0 && now < stop_ns) then begin
        let wake = Option.value ~default:stop_ns next in
        let timeout = Float.max 0. (float_of_int (wake - now) /. 1e9) in
        let writing =
          List.filter_map
            (fun c -> if Buffer.length c.out > 0 then Some c.fd else None)
            (Array.to_list conns)
        in
        (match Unix.select fds writing [] timeout with
        | r, w, _ ->
          Array.iteri
            (fun c conn ->
              if List.mem conn.fd w then flush conn;
              if List.mem conn.fd r then read c)
            conns
        | exception Unix.Unix_error (EINTR, _, _) -> ());
        loop ()
      end
    in
    (try
       (match pacing with
       | Closed _ -> Array.iter (fun _ -> send_one ~due_ns:(now_ns ())) conns
       | Open _ -> ());
       loop ()
     with End_of_file | Unix.Unix_error _ | Json.Frame.Error _ | P.Protocol_error _ ->
       ());
    (* unanswered, or due and never sent: lost *)
    t.failed <-
      t.failed + outstanding ()
      + match pacing with Open { n; _ } -> max 0 (n - !k) | Closed _ -> 0

  type phase = {
    lat : Vec.t;
    late : Vec.t;
    rate : float;  (** open loop: sent / s; closed loop: completed / s *)
    attempted : int;
    failed : int;
  }

  let n_phases = ref 0

  (* one phase over two fresh connections; [duration] is the sending
     time *)
  let phase st ~pacing ~duration =
    incr n_phases;
    let conns = Array.init 2 (fun _ -> connect st.server.path) in
    let start_ns = now_ns () + 2_000_000 in
    let end_ns = start_ns + int_of_float (duration *. 1e9) in
    let pacing =
      match pacing with
      | `Open rate -> Open { rate; n = max 2 (int_of_float (rate *. duration)) }
      | `Closed -> Closed { until_ns = end_ns }
    in
    let t = { lat = Vec.create (); late = Vec.create (); completed = 0; sent = 0; failed = 0 } in
    drive st ~conns
      ~rng:(Prng.create ((st.seed * 7919) + !n_phases))
      ~pacing ~start_ns ~stop_ns:(end_ns + grace_ns) t;
    Array.iter (fun c -> Unix.close c.fd) conns;
    {
      lat = t.lat;
      late = t.late;
      rate =
        float_of_int (match pacing with Open { n; _ } -> n | Closed _ -> t.completed)
        /. duration;
      attempted = (match pacing with Open { n; _ } -> n | Closed _ -> t.sent);
      failed = t.failed;
    }

  (* A round is half a second of the open loop at the fixed rate, then a
     fifth of a second of the closed loop.  Each latency percentile is
     the median over the rounds of the open loop's, and the throughput
     the median over the rounds of the closed loop's completions per
     second. *)
  let open_s = 0.5

  let closed_s = 0.2

  let rounds = 20

  let measure (ctx : ctx) st =
    let rate = if ctx.smoke then 1000. else fixed_rate in
    let fixed = ref [] and closed = ref [] in
    repeat ctx rounds (fun _ ->
        fixed := phase st ~pacing:(`Open rate) ~duration:open_s :: !fixed;
        closed := phase st ~pacing:`Closed ~duration:closed_s :: !closed);
    let fixed = !fixed and closed = !closed in
    let stats, rss = finish_server st.server in
    let late = Vec.create () in
    List.iter (fun p -> Vec.append ~into:late p.late) fixed;
    let per_round =
      List.filter_map
        (fun p ->
          if p.lat.Vec.n = 0 then None
          else Some (percentiles_ms (Vec.to_floats ~scale:1e-6 p.lat)))
        fixed
    in
    let median_of f l = if l = [] then nan else Stats.median (Array.of_list (List.map f l)) in
    let captured =
      List.concat
        (List.mapi
           (fun ki row ->
             match row.(0) with
             | Ok j -> [ (cycle.(ki), { P.id = 1; result = Ok j }) ]
             | Error _ -> [])
           (Array.to_list st.expected))
    in
    let phases = fixed @ closed in
    {
      attempted = st.warm_attempted + List.fold_left (fun a p -> a + p.attempted) 0 phases;
      failed = st.warm_failed + List.fold_left (fun a p -> a + p.failed) 0 phases;
      throughput = median_of (fun p -> p.rate) closed;
      p50_ms = median_of fst per_round;
      p99_ms = median_of snd per_round;
      samples = List.fold_left (fun a p -> a + p.lat.Vec.n) 0 fixed;
      extra_rss_mb = rss;
      layers =
        [
          ( "gen.late_p99_us",
            if late.Vec.n = 0 then 0. else Stats.percentile (Vec.to_floats late) 0.99 /. 1e3 );
          ( "gen.offered_rps",
            List.fold_left (fun a p -> a +. p.rate) 0. fixed /. float_of_int (List.length fixed) );
        ]
        @ layers ~stats ~captured;
    }
end

(* =============================== cold =============================== *)

module Cold = struct
  let name = "serve-cold"

  (* the mix lint 1, race 2, analyze 2, simulate 2.  No fuzz: its oracle
     runs the fiber backend at 2 and 4 workers, whose false deadlock
     report (see README.md) fails a fuzz case now and then when the host
     is loaded, and the reply does not say which stage failed. *)
  let slots = [ "lint"; "race"; "race"; "analyze"; "analyze"; "simulate"; "simulate" ]

  (* 154 requests each, so the run's p99 stands on more than 1000
     samples *)
  let n_blocks = 7

  type state = {
    server : server;
    clients : Client.t array;
    blocks : P.request array array list;  (** per block, per connection *)
  }

  let shuffle rng a =
    for i = Array.length a - 1 downto 1 do
      let j = Prng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done

  (* A block asks every combination (each family at its two smallest
     sizes) under every slot, with a fresh random seed each time, plus
     one repeat per ten fresh requests that re-sends one of the last 16;
     shuffled by the seed.  Runs are whole blocks, so every seed asks for
     the same mix of work; request [i] of a block goes to connection
     [i mod 2]. *)
  let schedule (ctx : ctx) rng ~blocks =
    let combos =
      List.concat_map
        (fun (f : Workloads.family) ->
          List.map (fun s -> (f.name, s)) (List.filteri (fun i _ -> i < 2) f.sizes))
        (if ctx.smoke then [ Workloads.find "mm"; Workloads.find "lcs" ]
         else Workloads.all)
    in
    let fresh = List.concat_map (fun c -> List.map (fun s -> Some (s, c)) slots) combos in
    let recent = Array.make 16 P.Ping and n_recent = ref 0 in
    let request_of = function
      | None -> recent.(Prng.int rng (max 1 (min 16 !n_recent)))
      | Some (slot, combo) ->
        let req = request slot (workload_key combo (Prng.int rng 1_000_000_000)) in
        recent.(!n_recent mod 16) <- req;
        incr n_recent;
        req
    in
    List.init blocks (fun _ ->
        let a = Array.of_list (fresh @ List.init (List.length fresh / 10) (fun _ -> None)) in
        shuffle rng a;
        let reqs = Array.map request_of a in
        Array.init 2 (fun c ->
            Array.init ((Array.length reqs + 1 - c) / 2) (fun i -> reqs.((2 * i) + c))))

  let setup (ctx : ctx) =
    let blocks = schedule ctx (Prng.create ctx.seed) ~blocks:(if ctx.smoke then 1 else n_blocks) in
    let server = start_server () in
    let clients = Array.init 2 (fun _ -> Client.connect (P.Unix_path server.path)) in
    Array.iter (fun c -> ignore (Client.call_exn c P.Ping)) clients;
    { server; clients; blocks }

  let teardown st =
    Array.iter Client.close st.clients;
    stop_server st.server

  type tally = {
    lat : Vec.t;
    mutable failed : int;
    mutable captured : (string * P.response) list;
  }

  (* one request in flight: send, wait for its reply, check it *)
  let drive client reqs t =
    let i = ref 0 in
    try
      while !i < Array.length reqs do
        let req = reqs.(!i) in
        let kind = P.kind_name req in
        let t0 = now_ns () in
        let id = Client.send client req in
        Span.record ~op:id "serve.client.send" ~start_ns:t0 ~stop_ns:(now_ns ());
        let rec await () =
          let r = Client.recv client in
          if r.P.id = id then r else await ()
        in
        let r = await () in
        let t1 = now_ns () in
        Span.record ~op:id ("serve.request." ^ kind) ~start_ns:t0 ~stop_ns:t1;
        Vec.push t.lat (t1 - t0);
        (match r.P.result with
        | Ok j when sound req j ->
          if not (List.mem_assoc kind t.captured) then
            t.captured <- (kind, r) :: t.captured
        | Ok j ->
          t.failed <- t.failed + 1;
          Printf.eprintf "serve-cold: unsound %s reply %s\n%!" kind (Json.to_string j)
        | Error e ->
          t.failed <- t.failed + 1;
          Printf.eprintf "serve-cold: %s failed: %s\n%!" kind e);
        incr i
      done
    with End_of_file | Unix.Unix_error _ | Json.Frame.Error _ | P.Protocol_error _ ->
      (* the connection died: the request in flight and the rest are lost *)
      t.failed <- t.failed + Array.length reqs - !i

  (* Blocks run one after the other, both connections at once.  Every
     block asks for the same work; throughput and p50 are the medians over
     the blocks of each block's, and the p99, which needs at least 1000
     samples, is taken over the whole run. *)
  let measure _ctx st =
    let tallies =
      Array.init 2 (fun _ -> { lat = Vec.create (); failed = 0; captured = [] })
    in
    let per_block = ref [] in
    List.iter
      (fun halves ->
        let before = Array.map (fun t -> t.lat.Vec.n) tallies in
        let (), wall =
          timed (fun () ->
              Array.map
                (fun c ->
                  Thread.create (fun () -> drive st.clients.(c) halves.(c) tallies.(c)) ())
                [| 0; 1 |]
              |> Array.iter Thread.join)
        in
        let lat = Vec.create () in
        Array.iteri
          (fun c t ->
            for i = before.(c) to t.lat.Vec.n - 1 do
              Vec.push lat t.lat.Vec.a.(i)
            done)
          tallies;
        per_block :=
          ( float_of_int lat.Vec.n /. wall,
            if lat.Vec.n = 0 then nan else Stats.median (Vec.to_floats ~scale:1e-6 lat) )
          :: !per_block)
      st.blocks;
    let per_block = !per_block in
    let lat = Vec.create () in
    Array.iter (fun t -> Vec.append ~into:lat t.lat) tallies;
    Array.iter Client.close st.clients;
    let stats, rss = finish_server st.server in
    let p99_ms =
      if lat.Vec.n = 0 then nan else snd (percentiles_ms (Vec.to_floats ~scale:1e-6 lat))
    in
    let median_of f = Stats.median (Array.of_list (List.map f per_block)) in
    let throughput = median_of fst in
    {
      attempted =
        List.fold_left
          (fun a halves -> Array.fold_left (fun a h -> a + Array.length h) a halves)
          0 st.blocks;
      failed = Array.fold_left (fun a (t : tally) -> a + t.failed) 0 tallies;
      throughput;
      p50_ms = median_of snd;
      p99_ms;
      samples = lat.Vec.n;
      extra_rss_mb = rss;
      layers =
        [ ("gen.late_p99_us", 0.); ("gen.offered_rps", throughput) ]
        @ layers ~stats ~captured:(List.concat_map (fun t -> t.captured) (Array.to_list tallies));
    }
end
