type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------ writer ----------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then begin
      (* shortest representation that still round-trips *)
      let s = Printf.sprintf "%.12g" f in
      Buffer.add_string buf s
    end
    else Buffer.add_string buf "null"
  | String s -> escape_to buf s
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        write buf x)
      fields;
    Buffer.add_char buf '}'

let to_buffer = write

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let to_channel oc v =
  let buf = Buffer.create 4096 in
  to_buffer buf v;
  Buffer.add_char buf '\n';
  Buffer.output_buffer oc buf

(* ------------------------------ parser ----------------------------- *)

exception Parse_error of string

type state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some '"' -> Buffer.add_char buf '"'; advance st
      | Some '\\' -> Buffer.add_char buf '\\'; advance st
      | Some '/' -> Buffer.add_char buf '/'; advance st
      | Some 'n' -> Buffer.add_char buf '\n'; advance st
      | Some 'r' -> Buffer.add_char buf '\r'; advance st
      | Some 't' -> Buffer.add_char buf '\t'; advance st
      | Some 'b' -> Buffer.add_char buf '\b'; advance st
      | Some 'f' -> Buffer.add_char buf '\012'; advance st
      | Some 'u' ->
        advance st;
        let hex4 () =
          if st.pos + 4 > String.length st.src then fail st "bad \\u escape";
          let hex = String.sub st.src st.pos 4 in
          let cp =
            try int_of_string ("0x" ^ hex)
            with Failure _ -> fail st "bad \\u escape"
          in
          st.pos <- st.pos + 4;
          cp
        in
        let cp = hex4 () in
        if cp >= 0xd800 && cp <= 0xdbff then begin
          (* high surrogate: a low surrogate must follow for an
             astral-plane character (RFC 8259 section 7) *)
          if
            st.pos + 2 <= String.length st.src
            && st.src.[st.pos] = '\\'
            && st.src.[st.pos + 1] = 'u'
          then begin
            st.pos <- st.pos + 2;
            let lo = hex4 () in
            if lo >= 0xdc00 && lo <= 0xdfff then
              add_utf8 buf
                (0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00))
            else fail st "unpaired surrogate in \\u escape"
          end
          else fail st "unpaired surrogate in \\u escape"
        end
        else if cp >= 0xdc00 && cp <= 0xdfff then
          fail st "unpaired surrogate in \\u escape"
        else add_utf8 buf cp
      | _ -> fail st "bad escape");
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek st with
    | Some c when is_num_char c ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  let s = String.sub st.src start (st.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail st (Printf.sprintf "bad number %S" s))

let keyword st kw v =
  let n = String.length kw in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = kw
  then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st (Printf.sprintf "expected %s" kw)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> String (parse_string st)
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec field () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (k, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          field ()
        | Some '}' -> advance st
        | _ -> fail st "expected ',' or '}'"
      in
      field ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [] in
      let rec item () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          item ()
        | Some ']' -> advance st
        | _ -> fail st "expected ',' or ']'"
      in
      item ();
      List (List.rev !items)
    end
  | Some 't' -> keyword st "true" (Bool true)
  | Some 'f' -> keyword st "false" (Bool false)
  | Some 'n' -> keyword st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

(* ----------------------------- accessors --------------------------- *)

let member key v =
  match v with Obj fields -> List.assoc_opt key fields | _ -> None

let to_list v =
  match v with List l -> l | _ -> raise (Parse_error "expected an array")

let to_number v =
  match v with
  | Int i -> float_of_int i
  | Float f -> f
  | _ -> raise (Parse_error "expected a number")

let to_string_exn v =
  match v with String s -> s | _ -> raise (Parse_error "expected a string")

(* ------------------------------ framing ----------------------------- *)

module Frame = struct
  exception Error of string

  let default_max_frame = 16 * 1024 * 1024

  let encode v =
    let payload = to_string v in
    let n = String.length payload in
    let b = Bytes.create (4 + n) in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    Bytes.blit_string payload 0 b 4 n;
    Bytes.unsafe_to_string b

  type decoder = {
    max_frame : int;
    buf : Buffer.t;
    mutable consumed : int;  (* bytes of [buf] already decoded *)
  }

  let decoder ?(max_frame = default_max_frame) () =
    { max_frame; buf = Buffer.create 256; consumed = 0 }

  let feed d bytes off len =
    if off < 0 || len < 0 || off + len > Bytes.length bytes then
      invalid_arg "Json.Frame.feed";
    Buffer.add_subbytes d.buf bytes off len

  let feed_string d s = Buffer.add_string d.buf s

  let pending d = Buffer.length d.buf - d.consumed

  (* drop the consumed prefix once it dominates the buffer, so a
     long-lived connection does not grow its buffer without bound *)
  let compact d =
    if d.consumed > 4096 && d.consumed * 2 > Buffer.length d.buf then begin
      let rest = Buffer.sub d.buf d.consumed (pending d) in
      Buffer.clear d.buf;
      Buffer.add_string d.buf rest;
      d.consumed <- 0
    end

  let next d =
    if pending d < 4 then None
    else begin
      let hdr = Buffer.sub d.buf d.consumed 4 in
      let len = Int32.to_int (String.get_int32_be hdr 0) in
      if len < 0 || len > d.max_frame then
        raise
          (Error
             (Printf.sprintf "frame length %d exceeds limit %d" len
                d.max_frame));
      if pending d < 4 + len then None
      else begin
        let payload = Buffer.sub d.buf (d.consumed + 4) len in
        d.consumed <- d.consumed + 4 + len;
        compact d;
        match parse payload with
        | v -> Some v
        | exception Parse_error msg ->
          raise (Error (Printf.sprintf "malformed frame payload: %s" msg))
      end
    end
end
