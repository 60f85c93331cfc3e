module Json = Nd_util.Json
module Histogram = Nd_util.Histogram
module Workloads = Nd_experiments.Workloads
module Workload = Nd_algos.Workload
module P = Protocol

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type config = {
  addr : P.addr;
  max_frame : int;
  program_cache_cap : int;
  result_cache_cap : int;
  quiet : bool;
}

let default_config addr =
  {
    addr;
    max_frame = Json.Frame.default_max_frame;
    program_cache_cap = 32;
    result_cache_cap = 256;
    quiet = false;
  }

let standard_machine ~top = Nd_pmh.Pmh.standard ~top

(* ----------------------------- state ------------------------------- *)

(* canonical cache key: [n]/[base] resolved against the family defaults
   happens at build time, so two spellings of the same instance share
   an entry only when their option fields match; that is deliberate —
   keys stay cheap and structural *)
(* key records are consumed structurally (hashed/compared), never
   projected — silence the unused-field analysis *)
type prog_key = {
  algo : string;
  n : int option;
  base : int option;
  seed : int;
  np : bool;
}
[@@warning "-69"]

let prog_key_of_wk (wk : P.workload_key) =
  { algo = wk.algo; n = wk.n; base = wk.base; seed = wk.seed; np = wk.np }

type sim_key = { pk : prog_key; top : int; fine : bool } [@@warning "-69"]

type cost_key = { cpk : prog_key; ctop : int } [@@warning "-69"]

type fuzz_key = { count : int; fseed : int; max_depth : int }
[@@warning "-69"]

type t = {
  cfg : config;
  programs : (prog_key, Workload.t * Nd.Program.t) Cache.t;
  lint_results : (prog_key, Json.t) Cache.t;
  race_results : (prog_key, Json.t) Cache.t;
  cost_results : (cost_key, Json.t) Cache.t;
  sim_results : (sim_key, Json.t) Cache.t;
  fuzz_results : (fuzz_key, Json.t) Cache.t;
  suite_results : (string, Json.t) Cache.t;
  pool : Nd_runtime.Fiber_exec.t;  (* runs every request not answered inline *)
  (* kind -> latencies ns.  Reader threads and pool fibers record while
     the stats path merges, so each is a mutex-guarded Sync histogram (a
     bare Histogram.record racing a merge yields count/bucket mismatches
     and garbage percentiles) *)
  hists : Histogram.Sync.t array;
  stop : bool Atomic.t;
  started_ns : int;
  n_requests : int Atomic.t;
  n_errors : int Atomic.t;
  mutable listen_fd : Unix.file_descr option;
  listen_lock : Mutex.t;
}

let create cfg =
  {
    cfg;
    (* a compiled program (0.03 MB to hundreds of MB) is asked for
       again only when its key comes back under another request kind:
       keep it from its second use, so one-shot keys pin nothing *)
    programs =
      Cache.create ~name:"programs" ~cap:cfg.program_cache_cap
        ~admission:Cache.Second_use ();
    lint_results = Cache.create ~name:"lint" ~cap:cfg.result_cache_cap ();
    race_results = Cache.create ~name:"race" ~cap:cfg.result_cache_cap ();
    cost_results = Cache.create ~name:"analyze" ~cap:cfg.result_cache_cap ();
    sim_results = Cache.create ~name:"simulate" ~cap:cfg.result_cache_cap ();
    fuzz_results = Cache.create ~name:"fuzz" ~cap:cfg.result_cache_cap ();
    suite_results = Cache.create ~name:"suite" ~cap:16 ();
    pool = Nd_runtime.Fiber_exec.create ();
    hists = Array.map (fun _ -> Histogram.Sync.create ()) P.kinds;
    stop = Atomic.make false;
    started_ns = now_ns ();
    n_requests = Atomic.make 0;
    n_errors = Atomic.make 0;
    listen_fd = None;
    listen_lock = Mutex.create ();
  }

(* ---------------------------- handlers ----------------------------- *)

let fail fmt = Printf.ksprintf failwith fmt

let compiled st (wk : P.workload_key) =
  let key = prog_key_of_wk wk in
  Cache.find_or_compute st.programs key (fun () ->
      let fam =
        match Workloads.find wk.algo with
        | fam -> fam
        | exception Not_found ->
          fail "unknown algorithm %s (expected one of %s)" wk.algo
            (String.concat ", " (Workloads.names ()))
      in
      let w = Workloads.build ?n:wk.n ?base:wk.base fam ~seed:wk.seed in
      let mode = if wk.np then Workload.NP else Workload.ND in
      (w, Workload.compile ~mode w))

let wk_fields (w : Workload.t) =
  [
    ("algo", Json.String w.name);
    ("n", Json.Int w.n);
    ("base", Json.Int w.base);
  ]

(* the race reply of [w]'s program, from its ESP verdict; the race and
   lint handlers both file it *)
let race_reply w (v : Nd_analyze.Esp_bags.verdict) =
  let s = v.Nd_analyze.Esp_bags.stats in
  Json.Obj
    (wk_fields w
    @ [
        ("race_free", Json.Bool (v.Nd_analyze.Esp_bags.races = []));
        ("n_races", Json.Int (List.length v.Nd_analyze.Esp_bags.races));
        ("n_leaves", Json.Int s.Nd_analyze.Esp_bags.n_leaves);
        ("n_fire_edges", Json.Int s.Nd_analyze.Esp_bags.n_fire_edges);
        ("n_accesses", Json.Int s.Nd_analyze.Esp_bags.n_accesses);
      ])

(* ND009 is the race request's ESP pass on the same program: run it
   once, lint with it, and file the race reply it yields, so a race
   request after a lint compiles nothing *)
let handle_lint st wk =
  let key = prog_key_of_wk wk in
  Cache.find_or_compute st.lint_results key (fun () ->
      let w, p = compiled st wk in
      let module Lint = Nd_analyze.Lint in
      let verdict = Nd_analyze.Esp_bags.analyze p in
      Cache.offer st.race_results key (race_reply w verdict);
      let fs = Lint.lint_compiled ~verdict p in
      let count s = List.length (List.filter (fun f -> f.Lint.severity = s) fs) in
      Json.Obj
        (wk_fields w
        @ [
            ("errors", Json.Int (count Lint.Error));
            ("warnings", Json.Int (count Lint.Warning));
            ("findings", Lint.to_json fs);
          ]))

let handle_race st wk =
  Cache.find_or_compute st.race_results (prog_key_of_wk wk) (fun () ->
      let w, p = compiled st wk in
      race_reply w (Nd_analyze.Esp_bags.analyze p))

(* the simulate reply of [w]'s program from SB's stats [s]; the
   simulate and analyze handlers both file it *)
let sim_reply w ~top ~fine (s : Nd_sched.Sb_sched.stats) =
  let module Sb = Nd_sched.Sb_sched in
  Json.Obj
    (wk_fields w
    @ [
        ("top", Json.Int top);
        ("fine", Json.Bool fine);
        ("time", Json.Int s.Sb.time);
        ("work", Json.Int s.Sb.work);
        ("miss_cost", Json.Int s.Sb.miss_cost);
        ( "misses",
          Json.List
            (Array.to_list (Array.map (fun m -> Json.Int m) s.Sb.misses)) );
        ("n_anchors", Json.Int s.Sb.n_anchors);
        ("n_procs", Json.Int s.Sb.n_procs);
        ("utilization", Json.Float (Sb.utilization s));
      ])

(* Theorem 1's certificate runs SB under ρ at the default σ in Coarse
   mode, which is the run a coarse simulate request reports: file its
   reply, so a simulate after an analyze on the same key and top
   computes nothing *)
let handle_analyze st wk ~top =
  let pk = prog_key_of_wk wk in
  Cache.find_or_compute st.cost_results { cpk = pk; ctop = top } (fun () ->
      let w, p = compiled st wk in
      let module Cost = Nd_analyze.Cost in
      let cost = Cost.of_program p in
      let cert = Cost.certify_theorem1 p (standard_machine ~top) in
      Cache.offer st.sim_results { pk; top; fine = false }
        (sim_reply w ~top ~fine:false cert.Cost.stats);
      Json.Obj
        (wk_fields w
        @ [
            ("top", Json.Int top);
            ("report", Cost.report_to_json (Cost.report cost));
            ("certification", Cost.certification_to_json cert);
          ]))

let handle_simulate st wk ~top ~fine =
  let key = { pk = prog_key_of_wk wk; top; fine } in
  Cache.find_or_compute st.sim_results key (fun () ->
      let w, p = compiled st wk in
      let mode =
        if fine then Nd_sched.Sb_sched.Fine else Nd_sched.Sb_sched.Coarse
      in
      sim_reply w ~top ~fine
        (Nd_sched.Sb_sched.run ~mode p (standard_machine ~top)))

let handle_fuzz st ~count ~seed ~max_depth =
  let key = { count; fseed = seed; max_depth } in
  Cache.find_or_compute st.fuzz_results key (fun () ->
      let params = { Nd_check.Gen.default_params with max_depth } in
      let failures = ref [] and n_failed = ref 0 in
      let race_free = ref 0 and paths = ref 0 in
      for i = 0 to count - 1 do
        let case_seed = seed + i in
        let spec = Nd_check.Gen.generate ~seed:case_seed ~params () in
        match Nd_check.Oracle.check_spec spec with
        | Ok r ->
          if r.Nd_check.Oracle.race_free then incr race_free;
          paths := !paths + r.Nd_check.Oracle.paths
        | Error _ ->
          incr n_failed;
          if List.length !failures < 16 then
            failures := case_seed :: !failures
      done;
      Json.Obj
        [
          ("cases", Json.Int count);
          ("seed", Json.Int seed);
          ("race_free", Json.Int !race_free);
          ("paths", Json.Int !paths);
          ("failures", Json.Int !n_failed);
          ( "failing_seeds",
            Json.List (List.rev_map (fun s -> Json.Int s) !failures) );
        ])

let handle_suite st ~exp =
  Cache.find_or_compute st.suite_results exp (fun () ->
      match List.assoc_opt exp Nd_experiments.Suite.all with
      | None ->
        fail "unknown experiment %s (expected overview, e1..e12)" exp
      | Some build -> Nd_util.Table.to_json (build ()))

let uptime_s st = float_of_int (now_ns () - st.started_ns) /. 1e9

let stats_json st =
  let kinds =
    Array.to_list
      (Array.mapi
         (fun k h ->
           (P.kinds.(k), Histogram.to_json (Histogram.Sync.snapshot h)))
         st.hists)
    |> List.filter (fun (_, j) ->
           match Json.member "count" j with
           | Some (Json.Int 0) -> false
           | _ -> true)
  in
  let module F = Nd_runtime.Fiber_exec in
  let s = F.stats st.pool in
  Json.Obj
    [
      ("uptime_s", Json.Float (uptime_s st));
      ("requests", Json.Int (Atomic.get st.n_requests));
      ("errors", Json.Int (Atomic.get st.n_errors));
      ("latency_ns", Json.Obj kinds);
      ( "caches",
        Json.List
          [
            Cache.stats_json st.programs;
            Cache.stats_json st.lint_results;
            Cache.stats_json st.race_results;
            Cache.stats_json st.cost_results;
            Cache.stats_json st.sim_results;
            Cache.stats_json st.fuzz_results;
            Cache.stats_json st.suite_results;
          ] );
      ( "fiber_pool",
        Json.Obj
          [
            ("name", Json.String (F.name st.pool));
            ("workers", Json.Int s.F.workers);
            ("started", Json.Int s.F.started);
            ("fibers", Json.Int s.F.fibers);
            ("completed", Json.Int s.F.completed);
            ("suspensions", Json.Int s.F.suspensions);
            ("steals", Json.Int s.F.steals);
            ("peak_blocked", Json.Int s.F.peak_blocked);
            ("blocked", Json.Int s.F.blocked);
            ("errors", Json.Int s.F.errors);
            ( "last_error",
              match F.last_error st.pool with
              | Some e -> Json.String e
              | None -> Json.Null );
          ] );
    ]

let handle st (req : P.request) =
  match req with
  | P.Ping -> Json.Obj [ ("pong", Json.Bool true) ]
  | P.Stats -> stats_json st
  | P.Shutdown -> Json.Obj [ ("stopping", Json.Bool true) ]
  | P.Lint wk -> handle_lint st wk
  | P.Race wk -> handle_race st wk
  | P.Analyze { wk; top } -> handle_analyze st wk ~top
  | P.Simulate { wk; top; fine } -> handle_simulate st wk ~top ~fine
  | P.Fuzz { count; seed; max_depth } -> handle_fuzz st ~count ~seed ~max_depth
  | P.Suite { exp } -> handle_suite st ~exp

(* -------------------------- connections ---------------------------- *)

type conn = {
  fd : Unix.file_descr;
  wlock : Mutex.t;
  mutable alive : bool;
}

let write_all fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < n then
      let k = Unix.write fd b off (n - off) in
      go (off + k)
  in
  go 0

let write_frame st conn json =
  Mutex.protect conn.wlock (fun () ->
      if conn.alive then
        try write_all conn.fd (Json.Frame.encode json)
        with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
          conn.alive <- false;
          Atomic.incr st.n_errors)

let result_of_handle st req =
  match handle st req with
  | v -> Ok v
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg
  | exception e -> Error (Printexc.to_string e)

let respond st conn ~id result =
  if Result.is_error result then Atomic.incr st.n_errors;
  write_frame st conn (P.response_to_json { P.id; result })

let initiate_stop st =
  if not (Atomic.exchange st.stop true) then
    (* [shutdown] (not [close]) on the listener: on Linux a close from
       another thread leaves a blocked [accept] blocked forever, while
       shutdown wakes it with EINVAL.  The fd itself is closed by
       [run]'s epilogue once the accept loop has returned. *)
    Mutex.protect st.listen_lock (fun () ->
        match st.listen_fd with
        | Some fd -> (
          try Unix.shutdown fd Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ -> ())
        | None -> ())

let dispatch st conn ({ P.id; req } : P.envelope) =
  let t0 = now_ns () in
  Atomic.incr st.n_requests;
  let answer () =
    respond st conn ~id (result_of_handle st req);
    Histogram.Sync.record st.hists.(P.kind_index req) (now_ns () - t0)
  in
  match req with
  | P.Ping | P.Stats -> answer ()
  | P.Shutdown ->
    answer ();
    initiate_stop st
  | _ -> (
    try Nd_runtime.Fiber_exec.submit st.pool answer
    with Nd_runtime.Fiber_exec.Closed ->
      respond st conn ~id (Error "server shutting down"))

(* best-effort id for an error response to a frame that decoded as JSON
   but not as a request envelope *)
let salvage_id json =
  match Json.member "id" json with Some (Json.Int i) -> i | _ -> 0

let reader st conn =
  let buf = Bytes.create 65536 in
  let dec = Json.Frame.decoder ~max_frame:st.cfg.max_frame () in
  let rec drain () =
    match Json.Frame.next dec with
    | None -> ()
    | Some json ->
      (match P.request_of_json json with
      | env -> dispatch st conn env
      | exception P.Protocol_error msg ->
        Atomic.incr st.n_errors;
        write_frame st conn
          (P.response_to_json { P.id = salvage_id json; result = Error msg }));
      drain ()
  in
  let rec loop () =
    match Unix.read conn.fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | k ->
      Json.Frame.feed dec buf 0 k;
      drain ();
      loop ()
    | exception Unix.Unix_error ((ECONNRESET | EBADF | EPIPE), _, _) -> ()
  in
  (try loop ()
   with Json.Frame.Error msg ->
     (* framing is broken: report once and drop the connection *)
     Atomic.incr st.n_errors;
     write_frame st conn (P.response_to_json { P.id = 0; result = Error msg }));
  Mutex.protect conn.wlock (fun () -> conn.alive <- false);
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* ----------------------------- sockets ----------------------------- *)

let listen_on addr =
  match (addr : P.addr) with
  | P.Unix_path path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    Unix.bind fd (ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | P.Tcp (host, port) ->
    let inet =
      try (Unix.gethostbyname host).h_addr_list.(0)
      with Not_found -> Unix.inet_addr_of_string host
    in
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.setsockopt fd SO_REUSEADDR true;
    Unix.bind fd (ADDR_INET (inet, port));
    Unix.listen fd 64;
    fd

let run cfg =
  let st = create cfg in
  (* a dead client's half-closed socket must cost an EPIPE, not the
     process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = listen_on cfg.addr in
  Mutex.protect st.listen_lock (fun () -> st.listen_fd <- Some fd);
  let prev_int = ref Sys.Signal_default and prev_term = ref Sys.Signal_default in
  (try
     prev_int :=
       Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> initiate_stop st));
     prev_term :=
       Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> initiate_stop st))
   with Invalid_argument _ -> ());
  if not cfg.quiet then begin
    Format.printf
      "ndsim serve: listening on %a (fiber pool: up to %d workers)@."
      P.pp_addr cfg.addr
      (Nd_runtime.Fiber_exec.n_workers st.pool);
    Format.print_flush ()
  end;
  let rec accept_loop () =
    if not (Atomic.get st.stop) then
      match Unix.accept fd with
      | conn_fd, _ ->
        (match cfg.addr with
        | P.Tcp _ -> (
          try Unix.setsockopt conn_fd TCP_NODELAY true
          with Unix.Unix_error _ -> ())
        | P.Unix_path _ -> ());
        let conn = { fd = conn_fd; wlock = Mutex.create (); alive = true } in
        ignore (Thread.create (fun () -> reader st conn) ());
        accept_loop ()
      | exception Unix.Unix_error (EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error ((EBADF | EINVAL | ECONNABORTED), _, _) ->
        (* listener closed by [initiate_stop] *)
        ()
  in
  accept_loop ();
  initiate_stop st;
  Mutex.protect st.listen_lock (fun () ->
      st.listen_fd <- None;
      try Unix.close fd with Unix.Unix_error _ -> ());
  Nd_runtime.Fiber_exec.shutdown st.pool;
  (match cfg.addr with
  | P.Unix_path path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | P.Tcp _ -> ());
  (try Sys.set_signal Sys.sigint !prev_int with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm !prev_term with Invalid_argument _ -> ());
  if not cfg.quiet then begin
    Format.printf "ndsim serve: clean shutdown after %d request(s)@."
      (Atomic.get st.n_requests);
    Format.print_flush ()
  end
