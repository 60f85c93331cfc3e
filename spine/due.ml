let due_ns ~start_ns ~rate k =
  start_ns + int_of_float (Float.round (float_of_int k *. 1e9 /. rate))

type 'a entry = { due : int; sent_at : int; payload : 'a }

type 'a t = (int, 'a entry) Hashtbl.t

let create () = Hashtbl.create 1024

let sent t ~id ~due_ns ~sent_ns tag =
  Hashtbl.replace t id { due = due_ns; sent_at = sent_ns; payload = tag }

type 'a reply = { latency_ns : int; late_ns : int; wire_ns : int; tag : 'a }

let answered t ~id ~now_ns =
  match Hashtbl.find_opt t id with
  | None -> None
  | Some e ->
    Hashtbl.remove t id;
    Some
      {
        latency_ns = now_ns - e.due;
        late_ns = e.sent_at - e.due;
        wire_ns = now_ns - e.sent_at;
        tag = e.payload;
      }

let outstanding t = Hashtbl.length t
