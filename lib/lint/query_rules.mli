(** Query-layer lint rules (ARC-Q family): a static CSL/CSRL checker.

    The contract: any formula this pass accepts will not raise
    {!Csl.Checker.Unsupported} when evaluated through
    [Core.Measures.to_csl_model] — every [Unsupported] site in the dynamic
    checker has a static rule here, validated against the model's actual
    label and reward sets without building the state space.

    Rule catalogue:
    - [ARC-Q001] (error): CSL syntax error (with line:column inside the
      query string).
    - [ARC-Q002] (error): unknown label, with a "did you mean" hint.
    - [ARC-Q003] (error): unknown reward structure.
    - [ARC-Q004] (error): a [=?] query nested inside a state formula.
    - [ARC-Q005] (error): negative, non-finite or inverted time bound.
    - [ARC-Q006] (error): atomic state expression the model cannot resolve.
    - [ARC-Q007] (warning): steady-state query ([S] or [R[S]]) on a chain
      with several recurrent classes.
    - [ARC-Q008] (warning): trivial or out-of-range probability bound. *)

type atomics =
  | ANone  (** no atomic expressions resolvable (Arcade models) *)
  | AVars of string list  (** resolvable against these state variables *)
  | AAll  (** everything resolvable (PRISM-built models) *)

type context = {
  model_name : string;
  labels : string list;
  any_sl : bool;
      (** accept any [sl_ge_<digits>] label without enumerating levels *)
  rewards : string option list;
  atomics : atomics;
  multiple_bsccs : bool;
}

val levels_of_model : Core.Model.t -> float list option
(** {!Core.Model.service_levels}, or [None] for fault trees with more than
    20 basic events, whose levels are not enumerated. *)

val context_of_model :
  ?multiple_bsccs:bool -> ?levels:float list option -> Core.Model.t -> context
(** The context matching [Core.Measures.to_csl_model], from the names
    {!Core.Measures} exports: its {!Core.Measures.tree_labels}, a
    {!Core.Measures.level_label} per service level and the
    {!Core.Measures.component_labels} of every component; its
    {!Core.Measures.reward_names}; no resolvable atomics. [levels] (default {!levels_of_model}) gives the
    service levels; without them any [sl_ge_<digits>] label is accepted
    ([any_sl]). *)

val check_ast :
  ?position:int * int ->
  context ->
  subject:string ->
  Csl.Ast.state_formula ->
  Diagnostic.t list

val check_string :
  ?position:int * int -> context -> subject:string -> string -> Diagnostic.t list
(** Parses and checks; a parse failure yields a single [ARC-Q001]. *)
