(** Arcade.Lint: a multi-layer static analyzer for models, chains and CSL
    queries.

    Everything here runs {e without building the state space}: model-layer
    rules work on the raw records of {!Core.Xml_io.read} (the one XML
    reader, whose positioned schema errors become [ARC-X001]), chain-layer
    rules on per-component skeleton digraphs, and query-layer rules on the
    CSL AST against the model's statically-known label and reward sets. A
    broken model is rejected in milliseconds instead of after minutes of
    state exploration.

    See {!Diagnostic} for the finding type, {!Model_rules},
    {!Chain_rules}, {!Query_rules} and {!Prism_rules} for the rule
    catalogues, and [bin/arcade_lint] for the CLI. *)

module Diagnostic = Diagnostic
module Model_rules = Model_rules
module Chain_rules = Chain_rules
module Query_rules = Query_rules
module Prism_rules = Prism_rules

val lint_source :
  ?file:string ->
  ?queries:string list ->
  string ->
  Diagnostic.t list * (Core.Model.t * float list option) option
(** Parse (with positions) and lint an Arcade document: {!Core.Xml_io.read}
    with its schema errors, model-layer and chain-layer rules always (span
    [lint.rules]); query-layer rules over the embedded measures and the
    extra [queries] (subjects [query[0]], [query[1]], ...) once the model
    is error-free (span [lint.queries]), both under one [lint.doc] span.
    Results are sorted and deduplicated; an XML parse error yields a
    single [ARC-X001]. Also returns the model the query pass built from
    the raw records with the service levels it enumerated
    ({!Query_rules.levels_of_model}), or [None] on a parse error, static
    errors or a rejected model construction, so that a caller can analyze
    the model without reading the source or enumerating the levels
    again. *)

val lint_string : ?file:string -> string -> Diagnostic.t list
(** {!lint_source}'s diagnostics. *)

val lint_file :
  ?queries:string list ->
  string ->
  Diagnostic.t list * (Core.Model.t * float list option) option
(** {!lint_source} over a file's contents; an unreadable file is one
    [ARC-X001]. *)

val lint_model :
  ?queries:(string * string) list -> Core.Model.t -> Diagnostic.t list
(** Lint an API-constructed (already validated) model, optionally with
    named queries: the diagnostics of its {!Core.Xml_io.to_xml} document
    with the queries as its measures. No source positions. *)

val has_errors : Diagnostic.t list -> bool

val debug_check :
  what:string -> ?queries:(string * string) list -> Core.Model.t -> unit
(** When the [ARCADE_DEBUG_LINT] environment variable is set ([1], [true]
    or [yes]): lint the model, print warnings and errors to stderr, and
    fail on errors. No-op otherwise — generated-model constructors call
    this unconditionally. *)

val catalogue : Diagnostic.rule list
(** All shipped rules, for [arcade_lint --rules] and the documentation. *)
