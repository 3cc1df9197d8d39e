(* Tests for the XML toolkit: parsing, escaping, error reporting and the
   parse/print roundtrip property. *)

module X = Xml_kit

let xml =
  Alcotest.testable
    (Fmt.of_to_string (fun doc -> X.to_string doc))
    ( = )

let parse = X.parse_string

(* ------------------------------------------------------------------ *)

let test_parse_simple () =
  let doc = parse "<a x=\"1\"><b/>text<c y=\"2\">inner</c></a>" in
  Alcotest.(check string) "root name" "a" (X.name doc);
  Alcotest.(check (option string)) "attr" (Some "1") (X.attribute doc "x");
  Alcotest.(check int) "children" 3 (List.length (X.children doc));
  Alcotest.(check int) "element children" 2 (List.length (X.child_elements doc));
  Alcotest.(check string) "text content" "textinner" (X.text_content doc)

let test_parse_declaration_comment () =
  let doc =
    parse
      "<?xml version=\"1.0\"?>\n<!-- a comment -->\n<root><!-- inner -->\n<leaf/></root>"
  in
  Alcotest.(check string) "root" "root" (X.name doc);
  Alcotest.(check int) "comment dropped" 1 (List.length (X.child_elements doc))

let test_parse_doctype () =
  let doc = parse "<!DOCTYPE arcade>\n<arcade/>" in
  Alcotest.(check string) "root" "arcade" (X.name doc)

let test_parse_entities () =
  let doc = parse "<a t=\"&lt;&amp;&gt;\">x &lt; y &amp; z &#65;&#x42;</a>" in
  Alcotest.(check (option string)) "attr entities" (Some "<&>") (X.attribute doc "t");
  Alcotest.(check string) "text entities" "x < y & z AB" (X.text_content doc)

let test_parse_cdata () =
  let doc = parse "<a><![CDATA[<raw> & stuff]]></a>" in
  Alcotest.(check string) "cdata" "<raw> & stuff" (X.text_content doc)

let test_parse_errors () =
  let expect_error input =
    match parse input with
    | exception X.Parse_error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "expected parse error on %S" input)
  in
  List.iter expect_error
    [
      "";
      "<a>";
      "<a></b>";
      "<a x=1/>";
      "<a x=\"1\" x=\"2\"/>";
      "<a>&unknown;</a>";
      "<a/><b/>";
      "no markup";
    ]

let test_error_position () =
  match parse "<a>\n  <b></c>\n</a>" with
  | exception X.Parse_error { line; message; _ } ->
      Alcotest.(check int) "line number" 2 line;
      Alcotest.(check bool) "mentions tags" true
        (String.length message > 0)
  | _ -> Alcotest.fail "expected mismatched-tag error"

let test_escape () =
  Alcotest.(check string) "escape"
    "&lt;a&gt; &amp; &quot;b&quot; &apos;c&apos;"
    (X.escape "<a> & \"b\" 'c'")

let test_accessors () =
  let doc = parse "<root><x id=\"1\"/><y/><x id=\"2\"/></root>" in
  Alcotest.(check int) "find_children" 2 (List.length (X.find_children doc "x"));
  (match X.find_child doc "y" with
  | Some el -> Alcotest.(check string) "find_child" "y" (X.name el)
  | None -> Alcotest.fail "y not found");
  Alcotest.(check (option string)) "missing attribute" None (X.attribute doc "nope");
  Alcotest.(check (option string)) "first x" (Some "1")
    (Option.bind (X.find_child doc "x") (fun x -> X.attribute x "id"));
  Alcotest.(check bool) "missing child" true (X.find_child doc "zzz" = None)

let test_serialize_escapes () =
  let doc = X.element "a" [ ("k", "<&>\"'") ] [ X.Text "x < y" ] in
  let reparsed = parse (X.to_string doc) in
  Alcotest.(check (option string)) "attr preserved" (Some "<&>\"'")
    (X.attribute reparsed "k");
  Alcotest.(check string) "text preserved" "x < y" (X.text_content reparsed)

let test_compact_output () =
  let doc = X.element "a" [] [ X.element "b" [] [] ] in
  let s = X.to_string ~indent:0 doc in
  Alcotest.(check bool) "no newlines in body" true
    (not (String.contains (String.sub s 38 (String.length s - 38)) '\n'))

(* roundtrip property over random trees (element-only, since whitespace
   normalization affects text nodes) *)
let tree_gen =
  QCheck.Gen.(
    let name_gen = oneofl [ "alpha"; "beta"; "gamma"; "delta-x"; "e_1" ] in
    let attr_gen =
      list_size (int_range 0 3)
        (pair (oneofl [ "a"; "b"; "c" ]) (oneofl [ "1"; "x<y"; "m&m"; "\"q\""; "" ]))
    in
    let dedup attrs =
      List.fold_left
        (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
        [] attrs
    in
    sized_size (int_range 0 4)
      (fix (fun self n ->
           let* name = name_gen in
           let* attrs = attr_gen in
           if n = 0 then return (X.element name (dedup attrs) [])
           else
             let* kids = list_size (int_range 0 3) (self (n / 2)) in
             return (X.element name (dedup attrs) kids))))

let prop_roundtrip =
  QCheck.Test.make ~count:300 ~name:"parse (to_string doc) = doc"
    (QCheck.make tree_gen)
    (fun doc -> parse (X.to_string doc) = doc)

let prop_roundtrip_compact =
  QCheck.Test.make ~count:300 ~name:"compact roundtrip"
    (QCheck.make tree_gen)
    (fun doc -> parse (X.to_string ~indent:0 doc) = doc)

(* ------------------------------------------------------------------ *)
(* Hostile input: every byte string either parses or raises Parse_error
   with a position, never another exception *)

let shipped_models =
  lazy
    (let dir = "../models" in
     Sys.readdir dir |> Array.to_list
     |> List.filter (fun f -> Filename.check_suffix f ".xml")
     |> List.sort compare
     |> List.map (fun f -> In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)
     |> Array.of_list)

(* [edits] as (position, operation, byte): 0 replaces, 1 inserts and 2
   deletes the byte at the position (taken modulo the current length) *)
let mutate text edits =
  List.fold_left
    (fun s (pos, op, c) ->
      let n = String.length s in
      let i = pos mod (n + 1) in
      match op with
      | 0 when i < n -> String.mapi (fun j x -> if j = i then c else x) s
      | 2 when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
      | _ -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i))
    text edits

let hostile_xml_gen =
  QCheck.Gen.(
    let markup = "<>/=\"'&;#x!?-[]CDATA ab\n\t\r\000\255" in
    let byte =
      frequency
        [ (3, map (String.get markup) (int_bound (String.length markup - 1))); (1, char) ]
    in
    let model =
      map
        (fun k ->
          let models = Lazy.force shipped_models in
          models.(k mod Array.length models))
        nat
    in
    frequency
      [
        (1, string_size ~gen:byte (int_range 0 200));
        ( 1,
          let* m = model in
          let* k = int_bound (String.length m) in
          return (String.sub m 0 k) );
        ( 2,
          let* m = model in
          let* edits = list_size (int_range 1 8) (triple nat (int_bound 2) byte) in
          return (mutate m edits) );
      ])

let prop_parse_never_raises =
  QCheck.Test.make ~count:3000
    ~name:"parse_string: a document or a positioned Parse_error"
    (QCheck.make ~print:String.escaped hostile_xml_gen)
    (fun input ->
      match X.parse_string input with
      | _ -> true
      | exception X.Parse_error { line; column; _ } -> line >= 1 && column >= 1)

let () =
  Alcotest.run "xml_kit"
    [
      ( "parse",
        [
          Alcotest.test_case "simple document" `Quick test_parse_simple;
          Alcotest.test_case "declaration and comments" `Quick
            test_parse_declaration_comment;
          Alcotest.test_case "doctype" `Quick test_parse_doctype;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "cdata" `Quick test_parse_cdata;
          Alcotest.test_case "malformed inputs" `Quick test_parse_errors;
          Alcotest.test_case "error positions" `Quick test_error_position;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "escape" `Quick test_escape;
          Alcotest.test_case "escapes roundtrip" `Quick test_serialize_escapes;
          Alcotest.test_case "compact mode" `Quick test_compact_output;
        ] );
      ( "accessors", [ Alcotest.test_case "navigation" `Quick test_accessors ] );
      ( "roundtrip",
        List.map QCheck_alcotest.to_alcotest [ prop_roundtrip; prop_roundtrip_compact ]
      );
      ( "hostile-input",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |])
            prop_parse_never_raises;
        ] );
      ( "arcade-doc",
        [
          Alcotest.test_case "realistic document" `Quick (fun () ->
              let text =
                {|<?xml version="1.0" encoding="UTF-8"?>
<arcade name="demo">
  <components>
    <component name="st1" mttf="2000" mttr="5"/>
  </components>
  <fault-tree><basic ref="st1"/></fault-tree>
</arcade>|}
              in
              let doc = parse text in
              Alcotest.check xml "reparse of print" doc (parse (X.to_string doc)));
        ] );
    ]
