type comparison = Lt | Le | Gt | Ge

type bound =
  | Query
  | Bounded of comparison * float

type interval =
  | Unbounded
  | Upto of float
  | Within of float * float

type state_formula =
  | True
  | False
  | Label of string
  | Atomic of Prism.Ast.expr
  | Not of state_formula
  | And of state_formula * state_formula
  | Or of state_formula * state_formula
  | Implies of state_formula * state_formula
  | P of bound * path_formula
  | S of bound * state_formula
  | R of string option * bound * reward_query

and path_formula =
  | Next of interval * state_formula
  | Until of state_formula * interval * state_formula
  | Eventually of interval * state_formula
  | Globally of interval * state_formula

and reward_query =
  | Instantaneous of float
  | Cumulative of float
  | Steady

let comparison_to_string = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let bound_to_string = function
  | Query -> "=?"
  | Bounded (cmp, p) -> Printf.sprintf "%s%g" (comparison_to_string cmp) p

let interval_to_string = function
  | Unbounded -> ""
  | Upto t -> Printf.sprintf "<=%g" t
  | Within (a, b) -> Printf.sprintf "[%g,%g]" a b

let rec to_string = function
  | True -> "true"
  | False -> "false"
  | Label name -> Printf.sprintf "%S" name
  | Atomic e -> Printf.sprintf "(%s)" (Prism.Printer.expr_to_string e)
  | Not f -> Printf.sprintf "!%s" (to_string_atomic f)
  | And (a, b) -> Printf.sprintf "%s & %s" (to_string_atomic a) (to_string_atomic b)
  | Or (a, b) -> Printf.sprintf "%s | %s" (to_string_atomic a) (to_string_atomic b)
  | Implies (a, b) -> Printf.sprintf "%s => %s" (to_string_atomic a) (to_string_atomic b)
  | P (bound, path) -> Printf.sprintf "P%s [ %s ]" (bound_to_string bound) (path_to_string path)
  | S (bound, f) -> Printf.sprintf "S%s [ %s ]" (bound_to_string bound) (to_string f)
  | R (None, bound, q) ->
      Printf.sprintf "R%s [ %s ]" (bound_to_string bound) (reward_query_to_string q)
  | R (Some name, bound, q) ->
      Printf.sprintf "R{\"%s\"}%s [ %s ]" name (bound_to_string bound)
        (reward_query_to_string q)

and to_string_atomic f =
  match f with
  | True | False | Label _ | Atomic _ | Not _ | P _ | S _ | R _ -> to_string f
  | And _ | Or _ | Implies _ -> Printf.sprintf "(%s)" (to_string f)

and path_to_string = function
  | Next (i, f) -> Printf.sprintf "X%s %s" (interval_to_string i) (to_string_atomic f)
  | Until (a, i, b) ->
      Printf.sprintf "%s U%s %s" (to_string_atomic a) (interval_to_string i)
        (to_string_atomic b)
  | Eventually (i, f) -> Printf.sprintf "F%s %s" (interval_to_string i) (to_string_atomic f)
  | Globally (i, f) -> Printf.sprintf "G%s %s" (interval_to_string i) (to_string_atomic f)

and reward_query_to_string = function
  | Instantaneous t -> Printf.sprintf "I=%g" t
  | Cumulative t -> Printf.sprintf "C<=%g" t
  | Steady -> "S"
