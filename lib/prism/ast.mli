(** Abstract syntax of the PRISM reactive-modules subset.

    Covers what the Arcade translation and the water-treatment case study
    need, which is the core of PRISM's CTMC fragment: typed constants,
    formulas, labels, modules with bounded-integer and boolean local
    variables, guarded commands with rate-weighted update alternatives,
    optional action labels for multi-way synchronization, and state-reward
    blocks. *)

type unop = Not | Neg

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | And
  | Or
  | Iff
  | Implies
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

type expr =
  | Int_lit of int
  | Real_lit of float
  | Bool_lit of bool
  | Var of string  (** variable, constant or formula reference *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Ite of expr * expr * expr
  | Call of string * expr list
      (** built-ins: [min], [max], [floor], [ceil], [pow], [mod] *)

type var_type = Tbool | Tint_range of expr * expr

type var_decl = {
  var_name : string;
  var_type : var_type;
  var_init : expr option;  (** defaults to [low] (int) or [false] (bool) *)
}

type update = (string * expr) list
(** Parallel assignments [x' = e]; the empty list is PRISM's [true] update. *)

type alternative = { weight : expr; update : update }
(** One [rate : update] branch of a command. *)

type command = {
  action : string option;
  guard : expr;
  alternatives : alternative list;
}

type module_def = {
  mod_name : string;
  mod_vars : var_decl list;
  mod_commands : command list;
}

type const_type = Cint | Cdouble | Cbool

type const_def = { const_name : string; const_type : const_type; const_value : expr }

type formula_def = { formula_name : string; formula_body : expr }

type label_def = { label_name : string; label_body : expr }

type reward_item = { reward_guard : expr; reward_value : expr }
(** A state-reward line [guard : value;]. *)

type rewards_def = { rewards_name : string option; rewards_items : reward_item list }

type model = {
  constants : const_def list;
  formulas : formula_def list;
  labels : label_def list;
  modules : module_def list;
  rewards : rewards_def list;
}
(** A CTMC model ([ctmc] keyword). *)

val expr_vars : expr -> string list
(** Free names referenced by an expression (variables, constants and
    formulas alike), in first-occurrence order. *)
