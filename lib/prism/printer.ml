open Ast

(* Precedence levels for minimal parenthesization; higher binds tighter. *)
let binop_prec = function
  | Iff -> 1
  | Implies -> 2
  | Or -> 3
  | And -> 4
  | Eq | Neq | Lt | Le | Gt | Ge -> 6
  | Add | Sub -> 7
  | Mul | Div -> 8

let binop_symbol = function
  | Iff -> "<=>"
  | Implies -> "=>"
  | Or -> "|"
  | And -> "&"
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"

let float_literal r =
  if Float.is_integer r && Float.abs r < 1e15 then Printf.sprintf "%.1f" r
  else Printf.sprintf "%.17g" r

let rec expr_prec level e =
  match e with
  | Int_lit i -> if i < 0 then Printf.sprintf "(%d)" i else string_of_int i
  | Real_lit r -> float_literal r
  | Bool_lit b -> string_of_bool b
  | Var name -> name
  | Unop (Not, e) -> "!" ^ expr_prec 5 e
  | Unop (Neg, e) -> "-" ^ expr_prec 9 e
  | Binop (op, a, b) ->
      let p = binop_prec op in
      (* relational operators are non-associative (parenthesize both sides);
         => and <=> parse right-associatively; the rest are left-associative *)
      let left_level, right_level =
        match op with
        | Eq | Neq | Lt | Le | Gt | Ge -> (p + 1, p + 1)
        | Implies | Iff -> (p + 1, p)
        | Add | Sub | Mul | Div | And | Or -> (p, p + 1)
      in
      let s =
        Printf.sprintf "%s %s %s" (expr_prec left_level a) (binop_symbol op)
          (expr_prec right_level b)
      in
      if p < level then "(" ^ s ^ ")" else s
  | Ite (c, a, b) ->
      let s = Printf.sprintf "%s ? %s : %s" (expr_prec 1 c) (expr_prec 0 a) (expr_prec 0 b) in
      if level > 0 then "(" ^ s ^ ")" else s
  | Call (f, args) ->
      Printf.sprintf "%s(%s)" f (String.concat ", " (List.map (expr_prec 0) args))

let expr_to_string e = expr_prec 0 e

let update_to_string = function
  | [] -> "true"
  | assigns ->
      String.concat " & "
        (List.map (fun (v, e) -> Printf.sprintf "(%s' = %s)" v (expr_to_string e)) assigns)

let alternative_to_string { weight; update } =
  Printf.sprintf "%s : %s" (expr_to_string weight) (update_to_string update)

let pp_command ppf { action; guard; alternatives } =
  let action_str = match action with None -> "" | Some a -> a in
  Format.fprintf ppf "  [%s] %s -> %s;" action_str (expr_to_string guard)
    (String.concat " + " (List.map alternative_to_string alternatives))

let pp_var_decl ppf { var_name; var_type; var_init } =
  let type_str =
    match var_type with
    | Tbool -> "bool"
    | Tint_range (low, high) ->
        Printf.sprintf "[%s..%s]" (expr_to_string low) (expr_to_string high)
  in
  let init_str =
    match var_init with
    | None -> ""
    | Some e -> Printf.sprintf " init %s" (expr_to_string e)
  in
  Format.fprintf ppf "  %s : %s%s;" var_name type_str init_str

let pp_model ppf model =
  Format.fprintf ppf "ctmc@,@,";
  List.iter
    (fun { const_name; const_type; const_value } ->
      let type_str =
        match const_type with Cint -> "int" | Cdouble -> "double" | Cbool -> "bool"
      in
      Format.fprintf ppf "const %s %s = %s;@," type_str const_name
        (expr_to_string const_value))
    model.constants;
  if model.constants <> [] then Format.fprintf ppf "@,";
  List.iter
    (fun { formula_name; formula_body } ->
      Format.fprintf ppf "formula %s = %s;@," formula_name (expr_to_string formula_body))
    model.formulas;
  if model.formulas <> [] then Format.fprintf ppf "@,";
  List.iter
    (fun m ->
      Format.fprintf ppf "module %s@," m.mod_name;
      List.iter (fun v -> Format.fprintf ppf "%a@," pp_var_decl v) m.mod_vars;
      if m.mod_vars <> [] then Format.fprintf ppf "@,";
      List.iter (fun c -> Format.fprintf ppf "%a@," pp_command c) m.mod_commands;
      Format.fprintf ppf "endmodule@,@,")
    model.modules;
  List.iter
    (fun { label_name; label_body } ->
      Format.fprintf ppf "label \"%s\" = %s;@," label_name (expr_to_string label_body))
    model.labels;
  if model.labels <> [] then Format.fprintf ppf "@,";
  List.iter
    (fun { rewards_name; rewards_items } ->
      (match rewards_name with
      | None -> Format.fprintf ppf "rewards@,"
      | Some name -> Format.fprintf ppf "rewards \"%s\"@," name);
      List.iter
        (fun { reward_guard; reward_value } ->
          Format.fprintf ppf "  %s : %s;@," (expr_to_string reward_guard)
            (expr_to_string reward_value))
        rewards_items;
      Format.fprintf ppf "endrewards@,@,")
    model.rewards

let model_to_string model = Format.asprintf "@[<v>%a@]" pp_model model
