(** Structured lint diagnostics.

    Every finding carries a stable rule code (["ARC-M004"]), a severity, the
    subject it is about (a component, gate, measure, ...), a message, an
    optional hint, and an optional source anchor ([file:line:column] when the
    input came through {!Xml_kit.parse_file_located}). *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string

type t = {
  code : string;  (** stable rule code, e.g. ["ARC-M004"] *)
  severity : severity;
  subject : string;  (** what the finding is about, e.g. ["component pump3"] *)
  message : string;
  hint : string option;
  file : string option;
  line : int option;  (** 1-based *)
  column : int option;  (** 1-based *)
}

(** One catalogue entry: the documentation of a rule. *)
type rule = {
  rule_code : string;
  rule_severity : severity;  (** the rule's typical severity *)
  rule_layer : string;  (** ["model"], ["chain"], ["query"] or ["prism"] *)
  rule_title : string;
  rule_rationale : string;
}

val make :
  ?hint:string ->
  ?file:string ->
  ?position:int * int ->
  code:string ->
  severity:severity ->
  subject:string ->
  ('a, unit, string, t) format4 ->
  'a

val with_file : string -> t -> t

val to_string : t -> string

val sort : t list -> t list
(** Sort by (file, line, column, code) and drop exact duplicates. *)

val count : severity -> t list -> int

val did_you_mean : string -> string list -> string option
(** A ["did you mean ...?"] hint when a close candidate (edit distance <= 2)
    exists. *)
