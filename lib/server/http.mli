(** A hand-rolled HTTP/1.1 subset over [Unix] file descriptors — the wire
    layer of the analysis daemon, in the spirit of [Xml_kit]: no external
    dependencies, just the fragment the protocol needs.

    Supported: request line + headers + [Content-Length] bodies,
    keep-alive and [Connection: close], status responses with JSON (or
    plain-text) bodies. Not supported (rejected with 4xx/5xx): chunked
    transfer encoding, upgrades, pipelining beyond strict
    request/response alternation. *)

exception Bad_request of string
(** An unparsable request (or one exceeding the size limits); servers
    answer 400 and close the connection. *)

type request = {
  meth : string;  (** uppercased, e.g. ["GET"], ["POST"] *)
  path : string;  (** raw request target, e.g. ["/analyze"] *)
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val wants_close : request -> bool
(** [Connection: close] requested (or an HTTP/1.0 client without
    [keep-alive]). *)

(** {2 Buffered connections} *)

type conn
(** A buffered reader over one socket; create one per accepted
    connection and reuse it across keep-alive requests. *)

val conn : Unix.file_descr -> conn

val read_request : conn -> request option
(** Read one full request. [None] on clean EOF before the first byte of
    a request; raises {!Bad_request} on malformed or oversized input
    (head > 64 KiB, body > 64 MiB, missing [Content-Length] on a body
    method, chunked encoding). *)

val write_response :
  ?content_type:string ->
  ?keep_alive:bool ->
  ?headers:(string * string) list ->
  Unix.file_descr ->
  status:int ->
  body:string ->
  unit
(** Write a complete response ([content_type] defaults to
    ["application/json"], [keep_alive] to [true]; [headers] are extra
    response headers, e.g. the echoed [traceparent]). *)

(** {2 A small client}

    Enough for the load generator and the tests: persistent keep-alive
    connections speaking strict request/response. *)

type client

val connect : host:string -> port:int -> client
(** TCP connect (first resolved address). Raises [Unix.Unix_error]. *)

val close : client -> unit

val call :
  ?headers:(string * string) list ->
  client ->
  meth:string ->
  path:string ->
  ?body:string ->
  unit ->
  int * string
(** One round trip on the persistent connection; returns
    [(status, body)]. [headers] are extra request headers (e.g.
    [traceparent]). Raises {!Bad_request} on an unparsable response and
    [Unix.Unix_error] / [End_of_file] on transport failures. *)

val call_full :
  ?close_after:bool ->
  ?headers:(string * string) list ->
  client ->
  meth:string ->
  path:string ->
  ?body:string ->
  unit ->
  int * (string * string) list * string
(** Like {!call} but also returns the response headers (names
    lowercased), for callers that need e.g. the echoed [traceparent]. *)

val request :
  ?headers:(string * string) list ->
  host:string ->
  port:int ->
  meth:string ->
  path:string ->
  ?body:string ->
  unit ->
  int * string
(** One-shot: {!connect}, {!call} with [Connection: close], {!close}. *)
