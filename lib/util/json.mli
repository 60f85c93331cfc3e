(** Minimal JSON: a value type, a writer, and a small recursive-descent
    parser.  Used by the machine-readable table output
    ({!Nd_util.Table.to_json}), the Chrome [trace_event] exporter
    ([Nd_trace.Chrome]) and the round-trip checks in the test suite.
    Covers the full JSON grammar, including surrogate-pair [\uXXXX]
    escapes: a high/low pair decodes to one astral-plane character
    (4-byte UTF-8), and an unpaired surrogate is a parse error
    (RFC 8259 section 7). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_buffer buf v] appends the serialized value (no trailing newline). *)
val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string

(** [to_channel oc v] writes the value followed by a newline. *)
val to_channel : out_channel -> t -> unit

exception Parse_error of string

(** [parse s] parses exactly one JSON value (surrounding whitespace
    allowed).  @raise Parse_error on malformed input or trailing junk. *)
val parse : string -> t

(** {2 Accessors} *)

(** [member key v] — the field of an [Obj], if present. *)
val member : string -> t -> t option

(** [to_list v] — the elements of a [List].  @raise Parse_error otherwise. *)
val to_list : t -> t list

(** [to_number v] — an [Int] or [Float] as a float.
    @raise Parse_error otherwise. *)
val to_number : t -> float

(** [to_string_exn v] — the payload of a [String].
    @raise Parse_error otherwise. *)
val to_string_exn : t -> string

(** {2 Length-prefixed framing}

    The wire format of the analysis server ([Nd_serve]): each frame is a
    4-byte big-endian payload length followed by that many bytes of
    serialized JSON.  [Frame] is pure — encoding returns a string and
    decoding is an incremental push parser — so the same code is
    exercised byte-for-byte by the unit tests and by the socket loop. *)
module Frame : sig
  (** Oversized frame announced by a header, or a complete frame whose
      payload is not valid JSON.  Truncated input is {e not} an error:
      {!next} just returns [None] until more bytes arrive. *)
  exception Error of string

  (** 16 MiB. *)
  val default_max_frame : int

  (** [encode v] — header + payload, ready to write. *)
  val encode : t -> string

  (** A stateful frame reassembler for one byte stream. *)
  type decoder

  val decoder : ?max_frame:int -> unit -> decoder

  (** [feed d bytes off len] appends raw bytes (e.g. straight from
      [Unix.read]).  @raise Invalid_argument on a bad range. *)
  val feed : decoder -> Bytes.t -> int -> int -> unit

  val feed_string : decoder -> string -> unit

  (** Bytes buffered but not yet decoded. *)
  val pending : decoder -> int

  (** [next d] — the next complete frame's value, or [None] if the
      buffered bytes end mid-frame.  @raise Error on an oversized
      header or a malformed payload; the decoder must then be
      discarded (the stream has no resynchronization point). *)
  val next : decoder -> t option
end
