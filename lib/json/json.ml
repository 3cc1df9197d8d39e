type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Parsing: plain recursive descent over a string                     *)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else fail "invalid literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string_opt ("0x" ^ String.sub s !pos 4) in
    match v with
    | Some v ->
        pos := !pos + 4;
        v
    | None -> fail "invalid \\u escape"
  in
  let add_utf8 buf code =
    (* encode a scalar value; unpaired surrogates collapse to U+FFFD *)
    let code = if code >= 0xD800 && code <= 0xDFFF then 0xFFFD else code in
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
          advance ();
          Buffer.contents buf
      | '\\' ->
          advance ();
          (if !pos >= n then fail "truncated escape";
           let c = s.[!pos] in
           advance ();
           match c with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'u' -> add_utf8 buf (hex4 ())
           | _ -> fail "invalid escape");
          go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> Num x
    | None -> fail "invalid number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Num x ->
        Buffer.add_string buf
          (if Float.is_finite x then Printf.sprintf "%.17g" x else "null")
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            go item)
          items;
        Buffer.add_char buf ']'
    | Obj members ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            go item)
          members;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)

let member key = function Obj members -> List.assoc_opt key members | _ -> None

let string_field key json =
  match member key json with Some (Str s) -> Some s | _ -> None

let list_field key json =
  match member key json with Some (List l) -> Some l | _ -> None

let num x = Num x
