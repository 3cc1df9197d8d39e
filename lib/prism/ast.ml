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
  | Var of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Ite of expr * expr * expr
  | Call of string * expr list

type var_type = Tbool | Tint_range of expr * expr

type var_decl = {
  var_name : string;
  var_type : var_type;
  var_init : expr option;
}

type update = (string * expr) list

type alternative = { weight : expr; update : update }

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

type rewards_def = { rewards_name : string option; rewards_items : reward_item list }

type model = {
  constants : const_def list;
  formulas : formula_def list;
  labels : label_def list;
  modules : module_def list;
  rewards : rewards_def list;
}

let expr_vars expr =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec go = function
    | Int_lit _ | Real_lit _ | Bool_lit _ -> ()
    | Var name ->
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.replace seen name ();
          out := name :: !out
        end
    | Unop (_, e) -> go e
    | Binop (_, a, b) ->
        go a;
        go b
    | Ite (c, a, b) ->
        go c;
        go a;
        go b
    | Call (_, args) -> List.iter go args
  in
  go expr;
  List.rev !out
