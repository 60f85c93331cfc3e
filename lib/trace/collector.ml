type ring = {
  buf : Event.t option array;
  mutable head : int;  (* index of the oldest retained event *)
  mutable len : int;
  mutable dropped : int;
}

type t = {
  enabled : bool;
  rings : ring array;
  clock : unit -> int;
  to_us : float;
}

let null =
  { enabled = false; rings = [||]; clock = (fun () -> 0); to_us = 1. }

let create ?(capacity = 1 lsl 18) ~workers () =
  if workers < 1 then invalid_arg "Collector.create: workers < 1";
  if capacity < 1 then invalid_arg "Collector.create: capacity < 1";
  {
    enabled = true;
    rings =
      Array.init workers (fun _ ->
          { buf = Array.make capacity None; head = 0; len = 0; dropped = 0 });
    clock = (fun () -> 0);
    to_us = 1.;
  }

let wallclock ?capacity ~workers () =
  (* CLOCK_MONOTONIC, immune to NTP slews that made gettimeofday-based
     intervals occasionally jump or go negative *)
  let t0 = Monotonic_clock.now () in
  let clock () = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
  { (create ?capacity ~workers ()) with clock; to_us = 1e-3 }

let enabled t = t.enabled

let n_workers t = Array.length t.rings

let ts_to_us t = t.to_us

let push r e =
  let cap = Array.length r.buf in
  if r.len < cap then begin
    r.buf.((r.head + r.len) mod cap) <- Some e;
    r.len <- r.len + 1
  end
  else begin
    r.buf.(r.head) <- Some e;
    r.head <- (r.head + 1) mod cap;
    r.dropped <- r.dropped + 1
  end

let emit t ~worker ~ts kind =
  if t.enabled && worker >= 0 && worker < Array.length t.rings then
    push t.rings.(worker) { Event.ts; worker; kind }

let emit_now t ~worker kind =
  if t.enabled && worker >= 0 && worker < Array.length t.rings then
    push t.rings.(worker) { Event.ts = t.clock (); worker; kind }

let ring_to_list r =
  let cap = Array.length r.buf in
  List.init r.len (fun i ->
      match r.buf.((r.head + i) mod cap) with
      | Some e -> e
      | None -> assert false)

let events t =
  let all = List.concat_map ring_to_list (Array.to_list t.rings) in
  List.stable_sort (fun a b -> compare a.Event.ts b.Event.ts) all

let dropped t =
  Array.fold_left (fun acc r -> acc + r.dropped) 0 t.rings
