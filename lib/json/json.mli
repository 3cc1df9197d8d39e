(** A minimal JSON value type, parser and printer: the one codec behind
    every JSON artifact (daemon replies, Chrome traces, metrics snapshots,
    bench timings and history lines, load reports).

    Covers all of RFC 8259 except [\uXXXX] surrogate pairs (non-BMP
    escapes decode to U+FFFD); numbers are IEEE doubles, so integers up to
    2{^53} round-trip exactly. NaN and infinities print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!parse} with a message carrying the byte offset. *)

val parse : string -> t
(** Parse one JSON document; trailing non-whitespace is an error. *)

val to_string : t -> string
(** Compact single-line serialization. Object member order is preserved. *)

val member : string -> t -> t option
(** [member key json] is the value of [key] when [json] is an [Obj]
    containing it. *)

val string_field : string -> t -> string option

val list_field : string -> t -> t list option

val num : float -> t
(** [Num], with non-finite values preserved (they serialize as [null]). *)
