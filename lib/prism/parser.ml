exception Syntax_error of { line : int; column : int; message : string }

let () =
  Printexc.register_printer (function
    | Syntax_error { line; column; message } ->
        Some (Printf.sprintf "Prism.Parser.Syntax_error (line %d, column %d: %s)" line column message)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Lexer *)

type token =
  | IDENT of string
  | INT of int
  | REAL of float
  | STRING of string
  | LBRACKET
  | RBRACKET
  | LPAREN
  | RPAREN
  | SEMI
  | COLON
  | PRIME
  | ARROW
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | AMP
  | BAR
  | BANG
  | QUESTION
  | EQ
  | NEQ
  | LE
  | GE
  | LT
  | GT
  | IFF
  | IMPLIES
  | DOTDOT
  | COMMA
  | EOF

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT i -> Printf.sprintf "integer %d" i
  | REAL r -> Printf.sprintf "real %g" r
  | STRING s -> Printf.sprintf "string %S" s
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | SEMI -> "';'"
  | COLON -> "':'"
  | PRIME -> "'''"
  | ARROW -> "'->'"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | STAR -> "'*'"
  | SLASH -> "'/'"
  | AMP -> "'&'"
  | BAR -> "'|'"
  | BANG -> "'!'"
  | QUESTION -> "'?'"
  | EQ -> "'='"
  | NEQ -> "'!='"
  | LE -> "'<='"
  | GE -> "'>='"
  | LT -> "'<'"
  | GT -> "'>'"
  | IFF -> "'<=>'"
  | IMPLIES -> "'=>'"
  | DOTDOT -> "'..'"
  | COMMA -> "','"
  | EOF -> "end of input"

type lexed = { tok : token; line : int; col : int }

let lex input =
  let n = String.length input in
  let pos = ref 0 and line = ref 1 and col = ref 1 in
  let out = ref [] in
  let error message = raise (Syntax_error { line = !line; column = !col; message }) in
  let advance () =
    let c = input.[!pos] in
    incr pos;
    if c = '\n' then begin
      incr line;
      col := 1
    end
    else incr col;
    c
  in
  let peek k = if !pos + k < n then Some input.[!pos + k] else None in
  let emit tok l c = out := { tok; line = l; col = c } :: !out in
  let is_digit c = c >= '0' && c <= '9' in
  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_ident c = is_ident_start c || is_digit c in
  while !pos < n do
    let l = !line and c0 = !col in
    match input.[!pos] with
    | ' ' | '\t' | '\r' | '\n' -> ignore (advance ())
    | '/' when peek 1 = Some '/' ->
        while !pos < n && input.[!pos] <> '\n' do
          ignore (advance ())
        done
    | '"' ->
        ignore (advance ());
        let buf = Buffer.create 16 in
        let continue = ref true in
        while !continue do
          if !pos >= n then error "unterminated string";
          match advance () with
          | '"' -> continue := false
          | ch -> Buffer.add_char buf ch
        done;
        emit (STRING (Buffer.contents buf)) l c0
    | ch when is_digit ch ->
        let start = !pos in
        while !pos < n && is_digit input.[!pos] do
          ignore (advance ())
        done;
        let is_real = ref false in
        if !pos < n && input.[!pos] = '.' && peek 1 <> Some '.' then begin
          is_real := true;
          ignore (advance ());
          while !pos < n && is_digit input.[!pos] do
            ignore (advance ())
          done
        end;
        if !pos < n && (input.[!pos] = 'e' || input.[!pos] = 'E') then begin
          is_real := true;
          ignore (advance ());
          if !pos < n && (input.[!pos] = '+' || input.[!pos] = '-') then ignore (advance ());
          while !pos < n && is_digit input.[!pos] do
            ignore (advance ())
          done
        end;
        let text = String.sub input start (!pos - start) in
        let tok =
          if !is_real then Option.map (fun r -> REAL r) (float_of_string_opt text)
          else Option.map (fun i -> INT i) (int_of_string_opt text)
        in
        (* "2e" (no exponent digits) or an int past max_int *)
        (match tok with
        | Some tok -> emit tok l c0
        | None ->
            raise
              (Syntax_error
                 { line = l; column = c0; message = Printf.sprintf "bad number %S" text }))
    | ch when is_ident_start ch ->
        let start = !pos in
        while !pos < n && is_ident input.[!pos] do
          ignore (advance ())
        done;
        emit (IDENT (String.sub input start (!pos - start))) l c0
    | '[' ->
        ignore (advance ());
        emit LBRACKET l c0
    | ']' ->
        ignore (advance ());
        emit RBRACKET l c0
    | '(' ->
        ignore (advance ());
        emit LPAREN l c0
    | ')' ->
        ignore (advance ());
        emit RPAREN l c0
    | ';' ->
        ignore (advance ());
        emit SEMI l c0
    | ':' ->
        ignore (advance ());
        emit COLON l c0
    | '\'' ->
        ignore (advance ());
        emit PRIME l c0
    | ',' ->
        ignore (advance ());
        emit COMMA l c0
    | '+' ->
        ignore (advance ());
        emit PLUS l c0
    | '*' ->
        ignore (advance ());
        emit STAR l c0
    | '/' ->
        ignore (advance ());
        emit SLASH l c0
    | '&' ->
        ignore (advance ());
        emit AMP l c0
    | '|' ->
        ignore (advance ());
        emit BAR l c0
    | '?' ->
        ignore (advance ());
        emit QUESTION l c0
    | '-' ->
        ignore (advance ());
        if !pos < n && input.[!pos] = '>' then begin
          ignore (advance ());
          emit ARROW l c0
        end
        else emit MINUS l c0
    | '!' ->
        ignore (advance ());
        if !pos < n && input.[!pos] = '=' then begin
          ignore (advance ());
          emit NEQ l c0
        end
        else emit BANG l c0
    | '<' ->
        ignore (advance ());
        if !pos + 1 < n && input.[!pos] = '=' && input.[!pos + 1] = '>' then begin
          ignore (advance ());
          ignore (advance ());
          emit IFF l c0
        end
        else if !pos < n && input.[!pos] = '=' then begin
          ignore (advance ());
          emit LE l c0
        end
        else emit LT l c0
    | '>' ->
        ignore (advance ());
        if !pos < n && input.[!pos] = '=' then begin
          ignore (advance ());
          emit GE l c0
        end
        else emit GT l c0
    | '=' ->
        ignore (advance ());
        if !pos < n && input.[!pos] = '>' then begin
          ignore (advance ());
          emit IMPLIES l c0
        end
        else emit EQ l c0
    | '.' ->
        ignore (advance ());
        if !pos < n && input.[!pos] = '.' then begin
          ignore (advance ());
          emit DOTDOT l c0
        end
        else error "unexpected '.'"
    | ch -> error (Printf.sprintf "unexpected character %C" ch)
  done;
  emit EOF !line !col;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Token stream *)

type stream = { tokens : lexed array; mutable idx : int }

let current st = st.tokens.(st.idx)

let fail st message =
  let { line; col; _ } = current st in
  raise (Syntax_error { line; column = col; message })

let next st =
  let t = current st in
  if t.tok <> EOF then st.idx <- st.idx + 1;
  t.tok

let peek_tok st = (current st).tok

let peek_tok2 st =
  if st.idx + 1 < Array.length st.tokens then st.tokens.(st.idx + 1).tok else EOF

let expect st tok =
  let got = next st in
  if got <> tok then
    fail st (Printf.sprintf "expected %s, got %s" (token_to_string tok) (token_to_string got))

let expect_ident st =
  match next st with
  | IDENT s -> s
  | got -> fail st (Printf.sprintf "expected an identifier, got %s" (token_to_string got))

let accept st tok = if peek_tok st = tok then (st.idx <- st.idx + 1; true) else false

(* ------------------------------------------------------------------ *)
(* Expressions: precedence climbing *)

let keywords =
  [ "ctmc"; "dtmc"; "mdp"; "module"; "endmodule"; "const"; "int"; "double";
    "bool"; "formula"; "label"; "rewards"; "endrewards"; "init"; "endinit";
    "true"; "false"; "min"; "max"; "floor"; "ceil"; "pow"; "mod" ]

let rec parse_expr_prec st =
  parse_ite st

and parse_ite st =
  let cond = parse_iff st in
  if accept st QUESTION then begin
    let then_ = parse_ite st in
    expect st COLON;
    let else_ = parse_ite st in
    Ast.Ite (cond, then_, else_)
  end
  else cond

and parse_iff st =
  let lhs = parse_implies st in
  if accept st IFF then Ast.Binop (Ast.Iff, lhs, parse_iff st) else lhs

and parse_implies st =
  let lhs = parse_or st in
  if accept st IMPLIES then Ast.Binop (Ast.Implies, lhs, parse_implies st) else lhs

and parse_or st =
  let lhs = ref (parse_and st) in
  while accept st BAR do
    lhs := Ast.Binop (Ast.Or, !lhs, parse_and st)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_not st) in
  while accept st AMP do
    lhs := Ast.Binop (Ast.And, !lhs, parse_not st)
  done;
  !lhs

and parse_not st =
  if accept st BANG then Ast.Unop (Ast.Not, parse_not st) else parse_rel st

and parse_rel st =
  let lhs = parse_add st in
  match peek_tok st with
  | EQ ->
      ignore (next st);
      Ast.Binop (Ast.Eq, lhs, parse_add st)
  | NEQ ->
      ignore (next st);
      Ast.Binop (Ast.Neq, lhs, parse_add st)
  | LT ->
      ignore (next st);
      Ast.Binop (Ast.Lt, lhs, parse_add st)
  | LE ->
      ignore (next st);
      Ast.Binop (Ast.Le, lhs, parse_add st)
  | GT ->
      ignore (next st);
      Ast.Binop (Ast.Gt, lhs, parse_add st)
  | GE ->
      ignore (next st);
      Ast.Binop (Ast.Ge, lhs, parse_add st)
  | _ -> lhs

and parse_add st =
  let lhs = ref (parse_mul st) in
  let continue = ref true in
  while !continue do
    if accept st PLUS then lhs := Ast.Binop (Ast.Add, !lhs, parse_mul st)
    else if accept st MINUS then lhs := Ast.Binop (Ast.Sub, !lhs, parse_mul st)
    else continue := false
  done;
  !lhs

and parse_mul st =
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    if accept st STAR then lhs := Ast.Binop (Ast.Mul, !lhs, parse_unary st)
    else if accept st SLASH then lhs := Ast.Binop (Ast.Div, !lhs, parse_unary st)
    else continue := false
  done;
  !lhs

and parse_unary st =
  if accept st MINUS then Ast.Unop (Ast.Neg, parse_unary st) else parse_atom st

and parse_atom st =
  match next st with
  | INT i -> Ast.Int_lit i
  | REAL r -> Ast.Real_lit r
  | IDENT "true" -> Ast.Bool_lit true
  | IDENT "false" -> Ast.Bool_lit false
  | IDENT (("min" | "max" | "floor" | "ceil" | "pow" | "mod") as f) ->
      expect st LPAREN;
      let args = parse_args st in
      Ast.Call (f, args)
  | IDENT name -> Ast.Var name
  | LPAREN ->
      let e = parse_expr_prec st in
      expect st RPAREN;
      e
  | got -> fail st (Printf.sprintf "expected an expression, got %s" (token_to_string got))

and parse_args st =
  let first = parse_expr_prec st in
  let args = ref [ first ] in
  while accept st COMMA do
    args := parse_expr_prec st :: !args
  done;
  expect st RPAREN;
  List.rev !args

(* ------------------------------------------------------------------ *)
(* Declarations *)

let parse_const st =
  (* "const" already consumed *)
  let const_type =
    match peek_tok st with
    | IDENT "int" ->
        ignore (next st);
        Ast.Cint
    | IDENT "double" ->
        ignore (next st);
        Ast.Cdouble
    | IDENT "bool" ->
        ignore (next st);
        Ast.Cbool
    | _ -> Ast.Cint
  in
  let const_name = expect_ident st in
  expect st EQ;
  let const_value = parse_expr_prec st in
  expect st SEMI;
  { Ast.const_name; const_type; const_value }

let parse_formula st =
  let formula_name = expect_ident st in
  expect st EQ;
  let formula_body = parse_expr_prec st in
  expect st SEMI;
  { Ast.formula_name; formula_body }

let parse_label st =
  let label_name =
    match next st with
    | STRING s -> s
    | got -> fail st (Printf.sprintf "expected a quoted label name, got %s" (token_to_string got))
  in
  expect st EQ;
  let label_body = parse_expr_prec st in
  expect st SEMI;
  { Ast.label_name; label_body }

let parse_var_decl st =
  let var_name = expect_ident st in
  expect st COLON;
  let var_type =
    match peek_tok st with
    | IDENT "bool" ->
        ignore (next st);
        Ast.Tbool
    | LBRACKET ->
        ignore (next st);
        let low = parse_expr_prec st in
        expect st DOTDOT;
        let high = parse_expr_prec st in
        expect st RBRACKET;
        Ast.Tint_range (low, high)
    | got -> fail st (Printf.sprintf "expected a variable type, got %s" (token_to_string got))
  in
  let var_init =
    if peek_tok st = IDENT "init" then begin
      ignore (next st);
      Some (parse_expr_prec st)
    end
    else None
  in
  expect st SEMI;
  { Ast.var_name; var_type; var_init }

let parse_update st =
  (* "true" (no assignment) or (x'=e) & (y'=e) ... *)
  if peek_tok st = IDENT "true" then begin
    ignore (next st);
    []
  end
  else begin
    let assigns = ref [] in
    let parse_one () =
      expect st LPAREN;
      let var = expect_ident st in
      expect st PRIME;
      expect st EQ;
      let e = parse_expr_prec st in
      expect st RPAREN;
      assigns := (var, e) :: !assigns
    in
    parse_one ();
    while accept st AMP do
      parse_one ()
    done;
    List.rev !assigns
  end

let parse_alternative st =
  (* rate : update   (rate optional: defaults to 1) *)
  (* Detect "expr :" vs bare update: an update starts with '(' ident ''' or
     the keyword true; but a rate expression can also start with '('.
     PRISM requires the rate for CTMCs, so: if the alternative begins with
     "true" or with "(" ident "'", treat it as a bare update. *)
  let bare_update =
    match peek_tok st with
    | IDENT "true" -> true
    | LPAREN -> (
        match peek_tok2 st with
        | IDENT _ ->
            (* lookahead for prime after the identifier *)
            st.idx + 2 < Array.length st.tokens && st.tokens.(st.idx + 2).tok = PRIME
        | _ -> false)
    | _ -> false
  in
  if bare_update then { Ast.weight = Ast.Real_lit 1.; update = parse_update st }
  else begin
    let weight = parse_expr_prec st in
    expect st COLON;
    { Ast.weight; update = parse_update st }
  end

let parse_command st =
  expect st LBRACKET;
  let action =
    match peek_tok st with
    | IDENT name ->
        ignore (next st);
        Some name
    | _ -> None
  in
  expect st RBRACKET;
  let guard = parse_expr_prec st in
  expect st ARROW;
  let alternatives = ref [ parse_alternative st ] in
  while accept st PLUS do
    alternatives := parse_alternative st :: !alternatives
  done;
  expect st SEMI;
  { Ast.action; guard; alternatives = List.rev !alternatives }

let parse_module st =
  let mod_name = expect_ident st in
  let vars = ref [] and commands = ref [] in
  let continue = ref true in
  while !continue do
    match peek_tok st with
    | IDENT "endmodule" ->
        ignore (next st);
        continue := false
    | IDENT _ -> vars := parse_var_decl st :: !vars
    | LBRACKET -> commands := parse_command st :: !commands
    | got -> fail st (Printf.sprintf "expected a declaration or endmodule, got %s" (token_to_string got))
  done;
  { Ast.mod_name; mod_vars = List.rev !vars; mod_commands = List.rev !commands }

let parse_rewards st =
  let rewards_name =
    match peek_tok st with
    | STRING s ->
        ignore (next st);
        Some s
    | _ -> None
  in
  let items = ref [] in
  let continue = ref true in
  while !continue do
    match peek_tok st with
    | IDENT "endrewards" ->
        ignore (next st);
        continue := false
    | LBRACKET ->
        fail st "transition rewards are not supported (state rewards only)"
    | _ ->
        let reward_guard = parse_expr_prec st in
        expect st COLON;
        let reward_value = parse_expr_prec st in
        expect st SEMI;
        items := { Ast.reward_guard; reward_value } :: !items
  done;
  { Ast.rewards_name; rewards_items = List.rev !items }

let parse_model input =
  let st = { tokens = lex input; idx = 0 } in
  (match next st with
  | IDENT "ctmc" -> ()
  | IDENT ("dtmc" | "mdp") -> fail st "only ctmc models are supported"
  | got -> fail st (Printf.sprintf "expected 'ctmc', got %s" (token_to_string got)));
  let constants = ref [] in
  let formulas = ref [] in
  let labels = ref [] in
  let modules = ref [] in
  let rewards = ref [] in
  let continue = ref true in
  while !continue do
    match next st with
    | EOF -> continue := false
    | IDENT "const" -> constants := parse_const st :: !constants
    | IDENT "formula" -> formulas := parse_formula st :: !formulas
    | IDENT "label" -> labels := parse_label st :: !labels
    | IDENT "module" -> modules := parse_module st :: !modules
    | IDENT "rewards" -> rewards := parse_rewards st :: !rewards
    | IDENT "init" -> fail st "init blocks are not supported; use variable init values"
    | got -> fail st (Printf.sprintf "unexpected %s at top level" (token_to_string got))
  done;
  ignore keywords;
  {
    Ast.constants = List.rev !constants;
    formulas = List.rev !formulas;
    labels = List.rev !labels;
    modules = List.rev !modules;
    rewards = List.rev !rewards;
  }

let parse_expr input =
  let st = { tokens = lex input; idx = 0 } in
  let e = parse_expr_prec st in
  (match next st with
  | EOF -> ()
  | got -> fail st (Printf.sprintf "trailing %s after expression" (token_to_string got)));
  e
