module Json = Nd_util.Json

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  start_ns : int;
  stop_ns : int;
  parent : int;
  op : int;
  tid : int;
}

type total = { count : int; total_ns : int; self_ns : int }

(* an open span on some thread's stack; [child_ns] accumulates the
   durations of the spans closed directly beneath it *)
type frame = {
  f_id : int;
  f_name : string;
  f_op : int;
  mutable child_ns : int;
}

let max_kept = 200_000

let on = ref false

let lock = Mutex.create ()

let next_id = ref 0

let kept = ref [||]

let n_kept = ref 0

let totals_tbl : (string, total) Hashtbl.t = Hashtbl.create 64

let stacks : (int, frame list) Hashtbl.t = Hashtbl.create 4

let enabled () = !on

let reset () =
  Mutex.protect lock (fun () ->
      next_id := 0;
      kept := [||];
      n_kept := 0;
      Hashtbl.reset totals_tbl;
      Hashtbl.reset stacks)

let stack tid = Option.value ~default:[] (Hashtbl.find_opt stacks tid)

let keep s =
  if !n_kept < max_kept then begin
    if !n_kept = Array.length !kept then begin
      let grown = Array.make (max 1024 (2 * !n_kept)) s in
      Array.blit !kept 0 grown 0 !n_kept;
      kept := grown
    end;
    !kept.(!n_kept) <- s;
    incr n_kept
  end

let add_total name ~dur ~self =
  let t =
    Option.value
      ~default:{ count = 0; total_ns = 0; self_ns = 0 }
      (Hashtbl.find_opt totals_tbl name)
  in
  Hashtbl.replace totals_tbl name
    { count = t.count + 1; total_ns = t.total_ns + dur; self_ns = t.self_ns + self }

(* must hold [lock]: charge a closed span to the totals, to the enclosing
   frame's child time, and to the kept list *)
let close_locked ~tid ~id ~name ~op ~start_ns ~stop_ns ~child_ns ~parent =
  let dur = stop_ns - start_ns in
  add_total name ~dur ~self:(dur - child_ns);
  (match parent with Some p -> p.child_ns <- p.child_ns + dur | None -> ());
  keep
    {
      id;
      name;
      start_ns;
      stop_ns;
      parent = (match parent with Some p -> p.f_id | None -> -1);
      op;
      tid;
    }

let with_ ?(op = -1) name f =
  if not !on then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let fr =
      Mutex.protect lock (fun () ->
          let fr =
            { f_id = !next_id; f_name = name; f_op = op; child_ns = 0 }
          in
          incr next_id;
          Hashtbl.replace stacks tid (fr :: stack tid);
          fr)
    in
    let start_ns = now_ns () in
    let finish () =
      let stop_ns = now_ns () in
      Mutex.protect lock (fun () ->
          let parent =
            match stack tid with
            | _ :: (p :: _ as rest) ->
              Hashtbl.replace stacks tid rest;
              Some p
            | _ ->
              Hashtbl.remove stacks tid;
              None
          in
          close_locked ~tid ~id:fr.f_id ~name:fr.f_name ~op:fr.f_op ~start_ns
            ~stop_ns ~child_ns:fr.child_ns ~parent)
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let record ?(op = -1) name ~start_ns ~stop_ns =
  if !on then begin
    let tid = Thread.id (Thread.self ()) in
    Mutex.protect lock (fun () ->
        let id = !next_id in
        incr next_id;
        let parent = match stack tid with p :: _ -> Some p | [] -> None in
        close_locked ~tid ~id ~name ~op ~start_ns ~stop_ns ~child_ns:0 ~parent)
  end

let totals () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals_tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let total name =
  Mutex.protect lock (fun () ->
      Option.value
        ~default:{ count = 0; total_ns = 0; self_ns = 0 }
        (Hashtbl.find_opt totals_tbl name))

let count () = Mutex.protect lock (fun () -> !next_id)

let enable () =
  on := true;
  let n = 20_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    with_ "trace.calibrate" ignore
  done;
  let per = float_of_int (now_ns () - t0) /. float_of_int n in
  reset ();
  per

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let pp_self_times ppf () =
  let rows = totals () in
  let all_self = List.fold_left (fun a (_, t) -> a + t.self_ns) 0 rows in
  let share ns =
    if all_self = 0 then 0. else 100. *. float_of_int ns /. float_of_int all_self
  in
  let layers = Hashtbl.create 16 in
  List.iter
    (fun (name, t) ->
      let l = layer_of name in
      let c, s = Option.value ~default:(0, 0) (Hashtbl.find_opt layers l) in
      Hashtbl.replace layers l (c + t.count, s + t.self_ns))
    rows;
  let layer_rows =
    Hashtbl.fold (fun l (c, s) acc -> (l, c, s) :: acc) layers []
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  Format.fprintf ppf "@[<v>%-36s %10s %12s %7s@," "layer / span" "count"
    "self s" "self %";
  List.iter
    (fun (l, c, s) ->
      Format.fprintf ppf "%-36s %10d %12.4f %6.1f%%@," l c
        (float_of_int s /. 1e9) (share s))
    layer_rows;
  List.iter
    (fun (name, t) ->
      Format.fprintf ppf "  %-34s %10d %12.4f %6.1f%%@," name t.count
        (float_of_int t.self_ns /. 1e9)
        (share t.self_ns))
    (List.sort (fun (_, a) (_, b) -> compare b.self_ns a.self_ns) rows);
  Format.fprintf ppf "@]"

let write_chrome path =
  let spans, n = Mutex.protect lock (fun () -> (!kept, !n_kept)) in
  let t0 =
    let m = ref max_int in
    for i = 0 to n - 1 do
      m := min !m spans.(i).start_ns
    done;
    !m
  in
  let us ns = Json.Float (float_of_int ns /. 1e3) in
  let buf = Buffer.create (n * 160) in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for i = 0 to n - 1 do
    let s = spans.(i) in
    if i > 0 then Buffer.add_string buf ",\n";
    Json.to_buffer buf
      (Json.Obj
         [
           ("name", Json.String s.name);
           ("cat", Json.String (layer_of s.name));
           ("ph", Json.String "X");
           ("ts", us (s.start_ns - t0));
           ("dur", us (s.stop_ns - s.start_ns));
           ("pid", Json.Int 1);
           ("tid", Json.Int s.tid);
           ( "args",
             Json.Obj
               [
                 ("id", Json.Int s.id);
                 ("parent", Json.Int s.parent);
                 ("op", Json.Int s.op);
               ] );
         ])
  done;
  Buffer.add_string buf "]}\n";
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf)
