type value = Vbool of bool | Vint of int | Vreal of float

exception Eval_error of string

let () =
  Printexc.register_printer (function
    | Eval_error msg -> Some (Printf.sprintf "Prism.Eval.Eval_error (%s)" msg)
    | _ -> None)

let error fmt = Printf.ksprintf (fun msg -> raise (Eval_error msg)) fmt

type env = {
  constants : (string, value) Hashtbl.t;
  formulas : (string, Ast.expr) Hashtbl.t;
  lookup_var : string -> value option;
}

let make_env ~constants ~formulas ~lookup_var =
  let ctable = Hashtbl.create 16 in
  List.iter (fun (name, v) -> Hashtbl.replace ctable name v) constants;
  let ftable = Hashtbl.create 16 in
  List.iter
    (fun { Ast.formula_name; formula_body } ->
      Hashtbl.replace ftable formula_name formula_body)
    formulas;
  { constants = ctable; formulas = ftable; lookup_var }

let as_bool = function
  | Vbool b -> b
  | v -> error "expected a boolean, got %s" (match v with Vint _ -> "int" | Vreal _ -> "double" | Vbool _ -> "bool")

let as_number = function
  | Vint i -> float_of_int i
  | Vreal r -> r
  | Vbool _ -> error "expected a number, got bool"

let numeric_binop op a b =
  (* preserve integerness when both sides are ints and the operation is
     closed over ints *)
  match (a, b) with
  | Vint x, Vint y -> (
      match op with
      | Ast.Add -> Vint (x + y)
      | Ast.Sub -> Vint (x - y)
      | Ast.Mul -> Vint (x * y)
      | Ast.Div ->
          if y = 0 then error "division by zero";
          Vreal (float_of_int x /. float_of_int y)
      | _ -> error "numeric_binop: not a numeric operator")
  | _ ->
      let x = as_number a and y = as_number b in
      (match op with
      | Ast.Add -> Vreal (x +. y)
      | Ast.Sub -> Vreal (x -. y)
      | Ast.Mul -> Vreal (x *. y)
      | Ast.Div ->
          if y = 0. then error "division by zero";
          Vreal (x /. y)
      | _ -> error "numeric_binop: not a numeric operator")

let compare_values a b =
  match (a, b) with
  | Vbool x, Vbool y -> compare x y
  | (Vint _ | Vreal _), (Vint _ | Vreal _) -> compare (as_number a) (as_number b)
  | _ -> error "cannot compare boolean with number"

let rec eval_with env visiting expr =
  let eval e = eval_with env visiting e in
  match expr with
  | Ast.Int_lit i -> Vint i
  | Ast.Real_lit r -> Vreal r
  | Ast.Bool_lit b -> Vbool b
  | Ast.Var name -> (
      match env.lookup_var name with
      | Some v -> v
      | None -> (
          match Hashtbl.find_opt env.constants name with
          | Some v -> v
          | None -> (
              match Hashtbl.find_opt env.formulas name with
              | Some body ->
                  if List.mem name visiting then error "cyclic formula %s" name;
                  eval_with env (name :: visiting) body
              | None -> error "unbound name %s" name)))
  | Ast.Unop (Ast.Not, e) -> Vbool (not (as_bool (eval e)))
  | Ast.Unop (Ast.Neg, e) -> (
      match eval e with
      | Vint i -> Vint (-i)
      | Vreal r -> Vreal (-.r)
      | Vbool _ -> error "cannot negate a boolean")
  | Ast.Binop (Ast.And, a, b) -> Vbool (as_bool (eval a) && as_bool (eval b))
  | Ast.Binop (Ast.Or, a, b) -> Vbool (as_bool (eval a) || as_bool (eval b))
  | Ast.Binop (Ast.Implies, a, b) -> Vbool ((not (as_bool (eval a))) || as_bool (eval b))
  | Ast.Binop (Ast.Iff, a, b) -> Vbool (as_bool (eval a) = as_bool (eval b))
  | Ast.Binop (Ast.Eq, a, b) -> Vbool (compare_values (eval a) (eval b) = 0)
  | Ast.Binop (Ast.Neq, a, b) -> Vbool (compare_values (eval a) (eval b) <> 0)
  | Ast.Binop (Ast.Lt, a, b) -> Vbool (compare_values (eval a) (eval b) < 0)
  | Ast.Binop (Ast.Le, a, b) -> Vbool (compare_values (eval a) (eval b) <= 0)
  | Ast.Binop (Ast.Gt, a, b) -> Vbool (compare_values (eval a) (eval b) > 0)
  | Ast.Binop (Ast.Ge, a, b) -> Vbool (compare_values (eval a) (eval b) >= 0)
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) as op, a, b) ->
      numeric_binop op (eval a) (eval b)
  | Ast.Ite (c, a, b) -> if as_bool (eval c) then eval a else eval b
  | Ast.Call (f, args) -> eval_call env visiting f (List.map eval args)

and eval_call _env _visiting f args =
  let two () =
    match args with
    | [ a; b ] -> (a, b)
    | _ -> error "%s expects 2 arguments, got %d" f (List.length args)
  in
  let one () =
    match args with
    | [ a ] -> a
    | _ -> error "%s expects 1 argument, got %d" f (List.length args)
  in
  match f with
  | "min" -> (
      match args with
      | [] -> error "min of no arguments"
      | first :: rest ->
          List.fold_left
            (fun acc v -> if compare_values v acc < 0 then v else acc)
            first rest)
  | "max" -> (
      match args with
      | [] -> error "max of no arguments"
      | first :: rest ->
          List.fold_left
            (fun acc v -> if compare_values v acc > 0 then v else acc)
            first rest)
  | "floor" -> Vint (int_of_float (Float.floor (as_number (one ()))))
  | "ceil" -> Vint (int_of_float (Float.ceil (as_number (one ()))))
  | "pow" ->
      let a, b = two () in
      (match (a, b) with
      | Vint x, Vint y when y >= 0 ->
          let rec go acc k = if k = 0 then acc else go (acc * x) (k - 1) in
          Vint (go 1 y)
      | _ -> Vreal (Float.pow (as_number a) (as_number b)))
  | "mod" -> (
      let a, b = two () in
      match (a, b) with
      | Vint x, Vint y ->
          if y = 0 then error "mod by zero";
          Vint (((x mod y) + abs y) mod abs y)
      | _ -> error "mod expects integers")
  | _ -> error "unknown function %s" f

let eval env expr = eval_with env [] expr

let eval_bool env expr = as_bool (eval env expr)

let eval_int env expr =
  match eval env expr with
  | Vint i -> i
  | Vreal _ -> error "expected an integer, got double"
  | Vbool _ -> error "expected an integer, got bool"

let eval_number env expr = as_number (eval env expr)

let eval_constants defs =
  List.fold_left
    (fun resolved { Ast.const_name; const_type; const_value } ->
      let env =
        make_env ~constants:resolved ~formulas:[] ~lookup_var:(fun _ -> None)
      in
      let v = eval env const_value in
      let v =
        match (const_type, v) with
        | Ast.Cint, Vint _ -> v
        | Ast.Cdouble, Vreal _ -> v
        | Ast.Cdouble, Vint i -> Vreal (float_of_int i)
        | Ast.Cbool, Vbool _ -> v
        | _ -> error "constant %s: value does not match declared type" const_name
      in
      resolved @ [ (const_name, v) ])
    [] defs
