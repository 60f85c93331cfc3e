module Deque = Nd_runtime.Deque
module Executor = Nd_runtime.Executor
module Engine = Nd_runtime.Executor.Engine
module Fiber = Nd_runtime.Fiber_exec
module Prng = Nd_util.Prng

type mode =
  | Random of { seeds : int list }
  | Exhaustive of { max_runs : int }

type stats = { runs : int; steps : int }

type failure = { seed : int option; schedule : int list; message : string }

let pp_failure ppf f =
  (match f.seed with
  | Some s -> Format.fprintf ppf "schedule seed %d: " s
  | None -> ());
  if f.schedule <> [] then
    Format.fprintf ppf "trail [%s]: "
      (String.concat ";" (List.map string_of_int f.schedule));
  Format.pp_print_string ppf f.message

(* ------------------------- fiber controller ------------------------- *)

type _ Effect.t += Yield : unit Effect.t

type fstate =
  | Fresh of (unit -> unit)
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Finished

exception Stuck of string

exception Cancelled

(* Run one complete schedule: [choose n] picks among the [n] currently
   live fibers at every preemption point.  The deque and fiber-runtime
   yield hooks are installed for the duration, so fibers suspend
   between the individual loads/stores of every deque operation and at
   the promise park/take windows of the fiber scheduler.

   When a schedule aborts early — a fiber body raises, or [Stuck]
   fires — the fibers still [Suspended] hold live one-shot
   continuations whose [Fun.protect] finalizers would otherwise never
   run; across the thousands of schedules a fuzz run replays that is a
   real leak.  The [~finally] below discontinues every one of them
   with [Cancelled] (after clearing the hooks, so unwinding cannot
   yield back into the dead schedule). *)
let run_schedule ~choose ~max_steps (bodies : (unit -> unit) array) =
  let n = Array.length bodies in
  let state = Array.map (fun f -> Fresh f) bodies in
  let steps = ref 0 in
  let handler i =
    {
      Effect.Deep.retc = (fun () -> state.(i) <- Finished);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                state.(i) <- Suspended k)
          | _ -> None);
    }
  in
  let live () =
    let l = ref [] in
    for i = n - 1 downto 0 do
      match state.(i) with Finished -> () | Fresh _ | Suspended _ -> l := i :: !l
    done;
    !l
  in
  let step () =
    match live () with
    | [] -> false
    | l ->
      if !steps >= max_steps then
        raise
          (Stuck
             (Printf.sprintf
                "no progress after %d scheduler steps (lost task?)" !steps));
      incr steps;
      let pick = List.nth l (choose (List.length l)) in
      (match state.(pick) with
      | Fresh f ->
        state.(pick) <- Finished;
        Effect.Deep.match_with f () (handler pick)
      | Suspended k ->
        state.(pick) <- Finished;
        Effect.Deep.continue k ()
      | Finished -> assert false);
      true
  in
  let cancel_suspended () =
    Array.iteri
      (fun i st ->
        match st with
        | Suspended k -> (
          state.(i) <- Finished;
          try Effect.Deep.discontinue k Cancelled with
          | Cancelled -> ()
          | Stuck _ -> ())
        | Fresh _ | Finished -> ())
      state
  in
  (* the hooks are process-wide, but a schedule runs on one domain:
     other domains (a server pool's workers beside a fuzz request) reach
     the same preemption points outside this handler and must pass *)
  let home = Domain.self () in
  let yf _label = if Domain.self () = home then Effect.perform Yield in
  Deque.Hooks.set_yield (Some yf);
  Fiber.Hooks.set_yield (Some yf);
  Fun.protect
    ~finally:(fun () ->
      Deque.Hooks.set_yield None;
      Fiber.Hooks.set_yield None;
      cancel_suspended ())
    (fun () ->
      while step () do
        ()
      done);
  !steps

(* ----------------------------- drivers ------------------------------ *)

(* [make ()] builds fresh fiber bodies plus the post-schedule check. *)
let drive ~mode ~max_steps
    (make : unit -> (unit -> unit) array * (unit -> (unit, string) result)) =
  let total_steps = ref 0 in
  match mode with
  | Random { seeds } ->
    let rec go runs = function
      | [] -> Ok { runs; steps = !total_steps }
      | seed :: rest -> (
        let prng = Prng.create seed in
        let choose = function 1 -> 0 | n -> Prng.int prng n in
        let bodies, check = make () in
        match run_schedule ~choose ~max_steps bodies with
        | steps -> (
          total_steps := !total_steps + steps;
          match check () with
          | Ok () -> go (runs + 1) rest
          | Error message -> Error { seed = Some seed; schedule = []; message })
        | exception e ->
          Error
            { seed = Some seed; schedule = []; message = Printexc.to_string e })
    in
    go 0 seeds
  | Exhaustive { max_runs } ->
    (* DFS over the schedule tree by prefix replay: each run follows
       the given trail of (choice, n_alternatives) pairs, then always
       picks alternative 0; the next trail increments the deepest
       choice that still has untried alternatives.  Schedules are
       deterministic, so replaying a prefix reproduces the same
       branch-point structure exactly. *)
    let next_trail trail =
      let rec carry = function
        | [] -> None
        | (c, n) :: rest_rev ->
          if c + 1 < n then Some (List.rev ((c + 1, n) :: rest_rev))
          else carry rest_rev
      in
      carry (List.rev trail)
    in
    let run_one prefix =
      let recorded = ref [] in
      let pos = ref 0 in
      let prefix = Array.of_list prefix in
      let choose n =
        let c = if !pos < Array.length prefix then fst prefix.(!pos) else 0 in
        recorded := (c, n) :: !recorded;
        incr pos;
        c
      in
      let bodies, check = make () in
      let result =
        match run_schedule ~choose ~max_steps bodies with
        | steps ->
          total_steps := !total_steps + steps;
          check ()
        | exception e -> Error (Printexc.to_string e)
      in
      (result, List.rev !recorded)
    in
    let rec go runs trail =
      if runs >= max_runs then Ok { runs; steps = !total_steps }
      else
        match run_one trail with
        | Error message, full ->
          Error { seed = None; schedule = List.map fst full; message }
        | Ok (), full -> (
          match next_trail full with
          | None -> Ok { runs = runs + 1; steps = !total_steps }
          | Some trail' -> go (runs + 1) trail')
    in
    go 0 []

(* ------------------------- program exploration ---------------------- *)

let engine_bodies eng =
  let nw = Engine.n_workers eng in
  Array.init nw (fun wid () ->
      while not (Engine.finished eng) do
        if not (Engine.try_pop eng wid) then begin
          let stolen = ref false in
          let i = ref 1 in
          while (not !stolen) && !i < nw do
            if Engine.try_steal eng ~thief:wid ~victim:((wid + !i) mod nw)
            then stolen := true;
            incr i
          done;
          if not !stolen then Effect.perform Yield
        end
      done)

let explore_program ?(workers = 2) ?(grain = 0) ~mode
    ?(reset = fun () -> ()) ?(check = fun () -> Ok ()) ?tracer program =
  let n_tasks = Nd_dag.Dag.n_vertices (Nd.Program.dag program) in
  let max_steps = 20_000 + (400 * (n_tasks + 1) * workers) in
  let make () =
    reset ();
    let eng = Executor.make_engine ~workers ~grain ?tracer program in
    let bodies = engine_bodies eng in
    let check () =
      if not (Engine.finished eng) then
        Error
          (Printf.sprintf "engine stopped with %d tasks remaining"
             (Engine.remaining eng))
      else check ()
    in
    (bodies, check)
  in
  drive ~mode ~max_steps make

(* ---------------------- fiber-pool exploration ---------------------- *)

(* Worker bodies over the fiber scheduler's engine mode.  A body gives
   up not only when the pool finished but also when it stalled (every
   live fiber parked, every queue empty): under a lost-wakeup bug the
   pool can never finish, and [stalled] is exact on a single domain, so
   the schedule terminates deterministically and the post-run check
   reports the leaked fibers instead of the run spinning to the
   max-steps guard. *)
let fiber_bodies pool =
  let nw = Fiber.n_workers pool in
  Array.init nw (fun wid () ->
      while not (Fiber.finished pool || Fiber.stalled pool) do
        if not (Fiber.try_advance pool wid) then Effect.perform Yield
      done)

let explore_fiber_program ?(workers = 2) ?(grain = 0) ~mode
    ?(reset = fun () -> ()) ?(check = fun () -> Ok ()) ?tracer program =
  let n_tasks = Nd_dag.Dag.n_vertices (Nd.Program.dag program) in
  let max_steps = 20_000 + (400 * (n_tasks + 1) * workers) in
  let make () =
    reset ();
    let pool = Fiber.make_engine ~workers ~grain ?tracer program in
    let bodies = fiber_bodies pool in
    let check () =
      if not (Fiber.finished pool) then
        Error
          (Printf.sprintf "fiber pool stalled with %d fibers remaining"
             (Fiber.remaining pool))
      else check ()
    in
    (bodies, check)
  in
  drive ~mode ~max_steps make

(* --------------------------- deque exploration ---------------------- *)

let explore_deque ~mode ?(n_thieves = 2) ?(pushes = 64) () =
  let make () =
    let d = Deque.create () in
    let produced = ref false in
    let consumed = Array.init (n_thieves + 1) (fun _ -> ref []) in
    let owner () =
      for v = 0 to pushes - 1 do
        Deque.push d v;
        if v land 7 = 7 then
          match Deque.pop d with
          | Some x -> consumed.(0) := x :: !(consumed.(0))
          | None -> ()
      done;
      produced := true;
      let rec drain () =
        match Deque.pop d with
        | Some x ->
          consumed.(0) := x :: !(consumed.(0));
          drain ()
        | None -> ()
      in
      drain ()
    in
    let thief tid () =
      let rec loop () =
        (* backoff before each attempt: thieves must be slower than the
           owner pushes, or the deque never crosses a capacity boundary
           and [grow] — where generations retire — is never exercised *)
        Effect.perform Yield;
        match Deque.steal d with
        | Some v ->
          consumed.(tid) := v :: !(consumed.(tid));
          loop ()
        | None -> if (not !produced) || Deque.size d > 0 then loop ()
      in
      loop ()
    in
    let bodies =
      Array.init (n_thieves + 1) (fun i ->
          if i = 0 then owner else thief i)
    in
    let check () =
      let all =
        List.sort compare (List.concat_map ( ! ) (Array.to_list consumed))
      in
      if List.length all <> pushes then
        Error
          (Printf.sprintf "exactly-once violated: %d items consumed of %d"
             (List.length all) pushes)
      else
        let rec verify i = function
          | [] -> Ok ()
          | v :: rest ->
            if v <> i then
              Error
                (Printf.sprintf
                   "exactly-once violated: expected %d at rank %d, got %d" i i
                   v)
            else verify (i + 1) rest
        in
        verify 0 all
    in
    (bodies, check)
  in
  drive ~mode ~max_steps:200_000 make
