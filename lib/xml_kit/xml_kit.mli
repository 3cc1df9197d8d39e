(** A small, self-contained XML toolkit.

    Implements the subset of XML 1.0 that document-oriented model
    interchange needs: elements, attributes, character data, comments,
    CDATA sections, processing instructions and the five predefined
    entities plus numeric character references. No DTD processing, no
    namespaces-aware resolution (prefixes are kept verbatim in names).

    This is the substrate for Arcade's XML input language; nothing in it is
    Arcade-specific. *)

(** Parsed document trees. Comments and processing instructions are dropped
    by the parser; CDATA becomes ordinary text. *)
type t =
  | Element of string * (string * string) list * t list
      (** name, attributes in document order, children *)
  | Text of string

exception Parse_error of { line : int; column : int; message : string }

val parse_string : string -> t
(** Parse a complete document and return its root element. Leading XML
    declaration, comments and PIs are allowed. Raises {!Parse_error}. *)

val parse_file : string -> t
(** {!parse_string} over a file's contents. Raises [Sys_error] on IO
    failure. *)

type locator = t -> (int * int) option
(** Source positions of parsed elements: [(line, column)] of the opening
    ['<'] (both 1-based), or [None] for nodes the locator does not know
    (text nodes, or elements built programmatically). Lookup is by node
    identity, so hold on to the exact subtrees the parse returned. *)

val parse_string_located : string -> t * locator
(** {!parse_string}, additionally returning a locator for every element of
    the parsed tree — the substrate for diagnostics that point at
    [file:line] instead of an element name. *)

val parse_file_located : string -> t * locator

val to_string : ?indent:int -> t -> string
(** Serialize with the given indentation width (default 2; [0] means
    compact single-line output). Attribute values and text are escaped.
    Guaranteed inverse: [parse_string (to_string doc)] yields a tree equal
    to [doc] up to whitespace-only text normalization. *)

(** {2 Tree accessors} *)

val name : t -> string
(** Element name; raises [Invalid_argument] on [Text]. *)

val attribute : t -> string -> string option
(** [attribute el key] is the attribute's value if present. *)

val children : t -> t list
(** Child nodes of an element ([[]] for [Text]). *)

val child_elements : t -> t list
(** Only the [Element] children. *)

val find_child : t -> string -> t option
(** First child element with the given name. *)

val find_children : t -> string -> t list
(** All child elements with the given name, in order. *)

val text_content : t -> string
(** Concatenated text below the node (trimmed). *)

val element : string -> (string * string) list -> t list -> t

val escape : string -> string
(** Escape the five XML-special characters (ampersand, angle brackets and
    both quote characters) for inclusion in XML. *)
