type t =
  | Element of string * (string * string) list * t list
  | Text of string

exception Parse_error of { line : int; column : int; message : string }

let () =
  Printexc.register_printer (function
    | Parse_error { line; column; message } ->
        Some (Printf.sprintf "Xml_kit.Parse_error (line %d, column %d: %s)" line column message)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Parser: a hand-written scanner over the input string with line/column
   tracking for error messages. *)

module Parser = struct
  type state = {
    input : string;
    mutable pos : int;
    mutable line : int;
    mutable col : int;
    mutable record : (t * (int * int)) list;
        (* element node -> (line, column) of its opening '<', collected
           when a caller asked for a located parse *)
  }

  let make input = { input; pos = 0; line = 1; col = 1; record = [] }

  let len st = String.length st.input

  let at_end st = st.pos >= len st

  let error st message = raise (Parse_error { line = st.line; column = st.col; message })

  let peek st = if at_end st then None else Some st.input.[st.pos]

  let peek2 st =
    if st.pos + 1 < len st then Some (st.input.[st.pos], st.input.[st.pos + 1]) else None

  let advance st =
    if at_end st then error st "unexpected end of input";
    let c = st.input.[st.pos] in
    st.pos <- st.pos + 1;
    if c = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1;
    c

  let looking_at st prefix =
    let l = String.length prefix in
    st.pos + l <= len st && String.sub st.input st.pos l = prefix

  let skip_exact st prefix =
    if not (looking_at st prefix) then
      error st (Printf.sprintf "expected %S" prefix);
    String.iter (fun _ -> ignore (advance st)) prefix

  let is_space = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false

  let skip_ws st =
    let continue = ref true in
    while !continue do
      match peek st with
      | Some c when is_space c -> ignore (advance st)
      | _ -> continue := false
    done

  let is_name_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

  let is_name_char c =
    is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

  let name st =
    (match peek st with
    | Some c when is_name_start c -> ()
    | _ -> error st "expected a name");
    let start = st.pos in
    let continue = ref true in
    while !continue do
      match peek st with
      | Some c when is_name_char c -> ignore (advance st)
      | _ -> continue := false
    done;
    String.sub st.input start (st.pos - start)

  let decode_entity st =
    (* called after consuming '&' *)
    let start = st.pos in
    let continue = ref true in
    while !continue do
      match peek st with
      | Some ';' -> continue := false
      | Some _ -> ignore (advance st)
      | None -> error st "unterminated entity reference"
    done;
    let entity = String.sub st.input start (st.pos - start) in
    ignore (advance st);
    (* ';' *)
    match entity with
    | "lt" -> "<"
    | "gt" -> ">"
    | "amp" -> "&"
    | "quot" -> "\""
    | "apos" -> "'"
    | _ ->
        let numeric =
          if String.length entity > 2 && entity.[0] = '#' && (entity.[1] = 'x' || entity.[1] = 'X')
          then int_of_string_opt ("0x" ^ String.sub entity 2 (String.length entity - 2))
          else if String.length entity > 1 && entity.[0] = '#' then
            int_of_string_opt (String.sub entity 1 (String.length entity - 1))
          else None
        in
        (match numeric with
        | Some code when code >= 0 && code <= 0x10FFFF ->
            (* encode as UTF-8 *)
            let buf = Buffer.create 4 in
            Buffer.add_utf_8_uchar buf (Uchar.of_int code);
            Buffer.contents buf
        | _ -> error st (Printf.sprintf "unknown entity &%s;" entity))

  let attribute_value st =
    let quote =
      match peek st with
      | Some (('"' | '\'') as q) ->
          ignore (advance st);
          q
      | _ -> error st "expected quoted attribute value"
    in
    let buf = Buffer.create 16 in
    let continue = ref true in
    while !continue do
      match peek st with
      | Some c when c = quote ->
          ignore (advance st);
          continue := false
      | Some '&' ->
          ignore (advance st);
          Buffer.add_string buf (decode_entity st)
      | Some '<' -> error st "'<' in attribute value"
      | Some c ->
          ignore (advance st);
          Buffer.add_char buf c
      | None -> error st "unterminated attribute value"
    done;
    Buffer.contents buf

  let rec skip_misc st =
    skip_ws st;
    if looking_at st "<!--" then begin
      skip_exact st "<!--";
      let continue = ref true in
      while !continue do
        if looking_at st "-->" then begin
          skip_exact st "-->";
          continue := false
        end
        else ignore (advance st)
      done;
      skip_misc st
    end
    else if looking_at st "<?" then begin
      skip_exact st "<?";
      let continue = ref true in
      while !continue do
        if looking_at st "?>" then begin
          skip_exact st "?>";
          continue := false
        end
        else ignore (advance st)
      done;
      skip_misc st
    end
    else if looking_at st "<!DOCTYPE" then begin
      (* skip to matching '>' (no internal subset support) *)
      let continue = ref true in
      while !continue do
        match advance st with '>' -> continue := false | _ -> ()
      done;
      skip_misc st
    end

  let attributes st =
    let attrs = ref [] in
    let continue = ref true in
    while !continue do
      skip_ws st;
      match peek st with
      | Some c when is_name_start c ->
          let key = name st in
          skip_ws st;
          skip_exact st "=";
          skip_ws st;
          let value = attribute_value st in
          if List.mem_assoc key !attrs then
            error st (Printf.sprintf "duplicate attribute %s" key);
          attrs := (key, value) :: !attrs
      | _ -> continue := false
    done;
    List.rev !attrs

  let rec element st =
    let at = (st.line, st.col) in
    skip_exact st "<";
    let tag = name st in
    let attrs = attributes st in
    skip_ws st;
    let node =
      if looking_at st "/>" then begin
        skip_exact st "/>";
        Element (tag, attrs, [])
      end
      else begin
        skip_exact st ">";
        let kids = content st tag in
        Element (tag, attrs, kids)
      end
    in
    st.record <- (node, at) :: st.record;
    node

  and content st tag =
    let kids = ref [] in
    let buf = Buffer.create 16 in
    let flush_text () =
      if Buffer.length buf > 0 then begin
        let s = Buffer.contents buf in
        Buffer.clear buf;
        if String.exists (fun c -> not (is_space c)) s then kids := Text s :: !kids
      end
    in
    let continue = ref true in
    while !continue do
      if looking_at st "</" then begin
        flush_text ();
        skip_exact st "</";
        let closing = name st in
        if closing <> tag then
          error st (Printf.sprintf "mismatched closing tag </%s> for <%s>" closing tag);
        skip_ws st;
        skip_exact st ">";
        continue := false
      end
      else if looking_at st "<!--" then begin
        skip_exact st "<!--";
        let inner = ref true in
        while !inner do
          if looking_at st "-->" then begin
            skip_exact st "-->";
            inner := false
          end
          else ignore (advance st)
        done
      end
      else if looking_at st "<![CDATA[" then begin
        flush_text ();
        skip_exact st "<![CDATA[";
        let cdata = Buffer.create 16 in
        let inner = ref true in
        while !inner do
          if looking_at st "]]>" then begin
            skip_exact st "]]>";
            inner := false
          end
          else Buffer.add_char cdata (advance st)
        done;
        kids := Text (Buffer.contents cdata) :: !kids
      end
      else if looking_at st "<?" then begin
        skip_exact st "<?";
        let inner = ref true in
        while !inner do
          if looking_at st "?>" then begin
            skip_exact st "?>";
            inner := false
          end
          else ignore (advance st)
        done
      end
      else begin
        match peek2 st with
        | Some ('<', c) when is_name_start c ->
            flush_text ();
            kids := element st :: !kids
        | Some ('<', _) -> error st "unexpected markup"
        | _ -> (
            match peek st with
            | Some '&' ->
                ignore (advance st);
                Buffer.add_string buf (decode_entity st)
            | Some _ -> Buffer.add_char buf (advance st)
            | None -> error st (Printf.sprintf "unterminated element <%s>" tag))
      end
    done;
    List.rev !kids

  let document st =
    skip_misc st;
    (match peek st with
    | Some '<' -> ()
    | _ -> error st "expected root element");
    let root = element st in
    skip_misc st;
    if not (at_end st) then error st "content after root element";
    root
end

let parse_string input = Parser.document (Parser.make input)

type locator = t -> (int * int) option

(* Position lookup keyed by node identity: every element is a fresh
   allocation, so physical equality distinguishes structurally equal
   subtrees. [Hashtbl.hash] is compatible with [==] (depth-bounded
   structural hashing; collisions are resolved by the equality). *)
module Phys = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )

  let hash = Hashtbl.hash
end)

let parse_string_located input =
  let st = Parser.make input in
  let root = Parser.document st in
  let table = Phys.create 64 in
  List.iter (fun (node, at) -> Phys.replace table node at) st.Parser.record;
  (root, fun node -> Phys.find_opt table node)

let read_file path =
  let ic = open_in_bin path in
  let finally () = close_in_noerr ic in
  Fun.protect ~finally (fun () ->
      let n = in_channel_length ic in
      really_input_string ic n)

let parse_file path = parse_string (read_file path)

let parse_file_located path = parse_string_located (read_file path)

(* ------------------------------------------------------------------ *)
(* Serialization *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&apos;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string ?(indent = 2) doc =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
  let newline depth =
    if indent > 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (depth * indent) ' ')
    end
  in
  let rec node depth = function
    | Text s -> Buffer.add_string buf (escape s)
    | Element (tag, attrs, kids) ->
        newline depth;
        Buffer.add_char buf '<';
        Buffer.add_string buf tag;
        List.iter
          (fun (k, v) ->
            Buffer.add_char buf ' ';
            Buffer.add_string buf k;
            Buffer.add_string buf "=\"";
            Buffer.add_string buf (escape v);
            Buffer.add_char buf '"')
          attrs;
        (match kids with
        | [] -> Buffer.add_string buf "/>"
        | _ ->
            Buffer.add_char buf '>';
            let only_text = List.for_all (function Text _ -> true | _ -> false) kids in
            List.iter (node (depth + 1)) kids;
            if not only_text then newline depth;
            Buffer.add_string buf "</";
            Buffer.add_string buf tag;
            Buffer.add_char buf '>')
  in
  node 0 doc;
  if indent > 0 then Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Accessors *)

let name = function
  | Element (tag, _, _) -> tag
  | Text _ -> invalid_arg "Xml_kit.name: text node"

let attribute node key =
  match node with
  | Element (_, attrs, _) -> List.assoc_opt key attrs
  | Text _ -> None

let children = function
  | Element (_, _, kids) -> kids
  | Text _ -> []

let child_elements node =
  List.filter (function Element _ -> true | Text _ -> false) (children node)

let find_child node tag =
  List.find_opt
    (function Element (t, _, _) -> t = tag | Text _ -> false)
    (children node)

let find_children node tag =
  List.filter
    (function Element (t, _, _) -> t = tag | Text _ -> false)
    (children node)

let text_content node =
  let buf = Buffer.create 16 in
  let rec go = function
    | Text s -> Buffer.add_string buf s
    | Element (_, _, kids) -> List.iter go kids
  in
  go node;
  String.trim (Buffer.contents buf)

let element tag attrs kids = Element (tag, attrs, kids)
