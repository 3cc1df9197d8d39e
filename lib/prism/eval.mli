(** Expression evaluation for the PRISM subset.

    Values are booleans, integers or doubles; integers promote to doubles
    where an operator mixes them, matching PRISM's semantics. Name
    resolution goes through an {!env}, which layers state variables over
    constants over formulas (formulas are expanded recursively, with cycle
    detection). *)

type value = Vbool of bool | Vint of int | Vreal of float

exception Eval_error of string

type env

val make_env :
  constants:(string * value) list ->
  formulas:Ast.formula_def list ->
  lookup_var:(string -> value option) ->
  env
(** Build an environment. [lookup_var] resolves state variables; constants
    shadow formulas; variables shadow both. *)

val eval : env -> Ast.expr -> value
(** Raises {!Eval_error} on unbound names, type errors, division by zero or
    formula cycles. *)

val eval_bool : env -> Ast.expr -> bool

val eval_int : env -> Ast.expr -> int

val eval_number : env -> Ast.expr -> float
(** Accepts [Vint] or [Vreal] and returns a float. *)

val eval_constants : Ast.const_def list -> (string * value) list
(** Resolve constant definitions in order; each may reference the previous
    ones. Checks the declared type of every constant. *)
