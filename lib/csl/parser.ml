exception
  Syntax_error of { position : int; line : int; column : int; message : string }

let () =
  Printexc.register_printer (function
    | Syntax_error { line; column; message; _ } ->
        Some
          (Printf.sprintf "Csl.Parser.Syntax_error (at %d:%d: %s)" line column
             message)
    | _ -> None)

type state = { input : string; mutable pos : int }

(* Queries embedded in XML <measures> elements span several lines; report
   errors as line:column within the query string rather than a raw byte
   offset. *)
let line_column input pos =
  let line = ref 1 and col = ref 1 in
  let stop = min pos (String.length input) in
  for i = 0 to stop - 1 do
    if input.[i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  (!line, !col)

(* The inverse of [line_column]: the byte offset of a 1-based
   [line]:[column] in [input], clamped to its length. *)
let offset_of input ~line ~column =
  let n = String.length input in
  let rec line_start i l =
    if l >= line || i >= n then i
    else
      match String.index_from_opt input i '\n' with
      | Some j -> line_start (j + 1) (l + 1)
      | None -> n
  in
  min n (line_start 0 1 + column - 1)

let error st message =
  let line, column = line_column st.input st.pos in
  raise (Syntax_error { position = st.pos; line; column; message })

let at_end st = st.pos >= String.length st.input

let peek st = if at_end st then None else Some st.input.[st.pos]

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> st.pos <- st.pos + 1
    | _ -> continue := false
  done

let looking_at st prefix =
  skip_ws st;
  let l = String.length prefix in
  st.pos + l <= String.length st.input && String.sub st.input st.pos l = prefix

let accept st prefix =
  if looking_at st prefix then begin
    st.pos <- st.pos + String.length prefix;
    true
  end
  else false

let expect st prefix =
  if not (accept st prefix) then error st (Printf.sprintf "expected %S" prefix)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let ident st =
  skip_ws st;
  let start = st.pos in
  while (not (at_end st)) && is_ident_char st.input.[st.pos] do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then error st "expected an identifier";
  String.sub st.input start (st.pos - start)

let number st =
  skip_ws st;
  let start = st.pos in
  let is_num_char c = (c >= '0' && c <= '9') || c = '.' || c = 'e' || c = 'E' || c = '-' || c = '+' in
  (* leading sign only at the start *)
  if (not (at_end st)) && (st.input.[st.pos] = '-' || st.input.[st.pos] = '+') then
    st.pos <- st.pos + 1;
  while
    (not (at_end st))
    && is_num_char st.input.[st.pos]
    && not (st.input.[st.pos] = '-' && st.pos > start
            && st.input.[st.pos - 1] <> 'e' && st.input.[st.pos - 1] <> 'E')
  do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then error st "expected a number";
  let text = String.sub st.input start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> error st (Printf.sprintf "bad number %S" text)

let quoted st =
  expect st "\"";
  let start = st.pos in
  while (not (at_end st)) && st.input.[st.pos] <> '"' do
    st.pos <- st.pos + 1
  done;
  if at_end st then error st "unterminated string";
  let s = String.sub st.input start (st.pos - start) in
  st.pos <- st.pos + 1;
  s

let bound st =
  skip_ws st;
  if accept st "=?" then Ast.Query
  else if accept st "<=" then Ast.Bounded (Ast.Le, number st)
  else if accept st ">=" then Ast.Bounded (Ast.Ge, number st)
  else if accept st "<" then Ast.Bounded (Ast.Lt, number st)
  else if accept st ">" then Ast.Bounded (Ast.Gt, number st)
  else error st "expected a bound (=?, <=p, <p, >=p, >p)"

let interval st =
  if accept st "<=" then Ast.Upto (number st)
  else if accept st "[" then begin
    let a = number st in
    skip_ws st;
    expect st ",";
    let b = number st in
    skip_ws st;
    expect st "]";
    if a < 0. || b < a then error st "bad time interval";
    Ast.Within (a, b)
  end
  else Ast.Unbounded

(* Balanced-paren scan: returns the substring inside the parentheses,
   assuming the opening paren was just consumed. *)
let balanced st =
  let start = st.pos in
  let depth = ref 1 in
  while !depth > 0 do
    if at_end st then error st "unbalanced parentheses";
    (match st.input.[st.pos] with
    | '(' -> incr depth
    | ')' -> decr depth
    | _ -> ());
    st.pos <- st.pos + 1
  done;
  String.sub st.input start (st.pos - 1 - start)

let rec formula st = implies st

and implies st =
  let lhs = or_formula st in
  if accept st "=>" then Ast.Implies (lhs, implies st) else lhs

and or_formula st =
  let lhs = ref (and_formula st) in
  while looking_at st "|" && not (looking_at st "||") do
    expect st "|";
    lhs := Ast.Or (!lhs, and_formula st)
  done;
  !lhs

and and_formula st =
  let lhs = ref (unary st) in
  while looking_at st "&" do
    expect st "&";
    lhs := Ast.And (!lhs, unary st)
  done;
  !lhs

and unary st =
  skip_ws st;
  if accept st "!" then Ast.Not (unary st) else atom st

and atom st =
  skip_ws st;
  match peek st with
  | Some '"' -> Ast.Label (quoted st)
  | Some '(' ->
      expect st "(";
      let chunk_start = st.pos in
      let inside = balanced st in
      (* a parenthesized chunk is either a nested state formula or a PRISM
         expression; try the formula grammar first *)
      let sub = { input = inside; pos = 0 } in
      (try
         let f = formula sub in
         skip_ws sub;
         if at_end sub then f else raise Exit
       with Syntax_error _ | Exit -> (
         try Ast.Atomic (Prism.Parser.parse_expr inside)
         with Prism.Parser.Syntax_error { line; column; message } ->
           (* report the PRISM error where it is in the query, not after
              the closing parenthesis *)
           st.pos <- chunk_start + offset_of inside ~line ~column;
           error st (Printf.sprintf "bad expression %S: %s" inside message)))
  | Some 'P' when not (is_longer_ident st) ->
      st.pos <- st.pos + 1;
      let b = bound st in
      expect st "[";
      let path = path_formula st in
      expect st "]";
      Ast.P (b, path)
  | Some 'S' when not (is_longer_ident st) ->
      st.pos <- st.pos + 1;
      let b = bound st in
      expect st "[";
      let f = formula st in
      expect st "]";
      Ast.S (b, f)
  | Some 'R' when not (is_longer_ident st) ->
      st.pos <- st.pos + 1;
      let name = if accept st "{" then begin
          let n = quoted st in
          expect st "}";
          Some n
        end
        else None
      in
      let b = bound st in
      expect st "[";
      let q = reward_query st in
      expect st "]";
      Ast.R (name, b, q)
  | Some c when is_ident_char c -> (
      let name = ident st in
      match name with
      | "true" -> Ast.True
      | "false" -> Ast.False
      | _ -> Ast.Atomic (Prism.Ast.Var name))
  | _ -> error st "expected a state formula"

and is_longer_ident st =
  (* 'P', 'S', 'R' only act as operators when not part of a longer word *)
  st.pos + 1 < String.length st.input && is_ident_char st.input.[st.pos + 1]

and path_formula st =
  skip_ws st;
  if looking_at st "X" && not (is_longer_ident st) then begin
    st.pos <- st.pos + 1;
    let i = interval st in
    Ast.Next (i, unary st)
  end
  else if looking_at st "F" && not (is_longer_ident st) then begin
    st.pos <- st.pos + 1;
    let i = interval st in
    Ast.Eventually (i, unary st)
  end
  else if looking_at st "G" && not (is_longer_ident st) then begin
    st.pos <- st.pos + 1;
    let i = interval st in
    Ast.Globally (i, unary st)
  end
  else begin
    let lhs = and_formula st in
    skip_ws st;
    if looking_at st "U" && not (is_longer_ident st) then begin
      st.pos <- st.pos + 1;
      let i = interval st in
      let rhs = and_formula st in
      Ast.Until (lhs, i, rhs)
    end
    else error st "expected a path operator (X, F, G or U)"
  end

and reward_query st =
  skip_ws st;
  if accept st "I=" then Ast.Instantaneous (number st)
  else if accept st "C<=" then Ast.Cumulative (number st)
  else if looking_at st "S" && not (is_longer_ident st) then begin
    st.pos <- st.pos + 1;
    Ast.Steady
  end
  else error st "expected a reward query (I=t, C<=t or S)"

let parse input =
  let st = { input; pos = 0 } in
  let f = formula st in
  skip_ws st;
  if not (at_end st) then error st "trailing input after formula";
  f
