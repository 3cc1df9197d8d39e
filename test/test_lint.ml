(* Tests for Arcade.Lint: one positive and one negative case per rule, the
   shipped-model cleanliness sweep, the seeded-defect fixtures, and the
   static-implies-dynamic property: any query the lint accepts must not
   raise Csl.Checker.Unsupported on the Line 2 DED model. *)

module D = Lint.Diagnostic
module QR = Lint.Query_rules

let codes diags = List.sort_uniq compare (List.map (fun d -> d.D.code) diags)

let has code diags = List.mem code (codes diags)

let check_fires msg code diags =
  Alcotest.(check bool) (msg ^ ": " ^ code ^ " fires") true (has code diags)

let check_silent msg code diags =
  Alcotest.(check bool) (msg ^ ": " ^ code ^ " silent") false (has code diags)

(* A minimal clean model; every rule test perturbs one aspect of it. *)
let model_xml ?(name = "m")
    ?(components =
      {|<component name="a" mttf="1000" mttr="10"/>
        <component name="b" mttf="2000" mttr="20"/>|})
    ?(repair =
      {|<repair-unit name="ru" strategy="fcfs" crews="1">
          <component ref="a"/><component ref="b"/>
        </repair-unit>|}) ?(spares = "")
    ?(tree = {|<or><basic ref="a"/><basic ref="b"/></or>|}) ?(measures = "") ()
    =
  Printf.sprintf
    {|<arcade name="%s"><components>%s</components>%s%s<fault-tree>%s</fault-tree>%s</arcade>|}
    name components
    (if repair = "" then "" else "<repair-units>" ^ repair ^ "</repair-units>")
    (if spares = "" then "" else "<spare-units>" ^ spares ^ "</spare-units>")
    tree
    (if measures = "" then "" else "<measures>" ^ measures ^ "</measures>")

let lint = Lint.lint_string

let test_clean_base () =
  Alcotest.(check (list string)) "no diagnostics" [] (codes (lint (model_xml ())))

(* ------------------------------------------------------------------ *)
(* Schema layer *)

let test_x001 () =
  check_fires "parse error" "ARC-X001" (lint "<arcade name=\"m\"><unclosed>");
  check_fires "missing attribute" "ARC-X001"
    (lint
       (model_xml
          ~components:
            {|<component name="a" mttr="10"/><component name="b" mttf="2" mttr="1"/>|}
          ()));
  check_fires "unparsable number" "ARC-X001"
    (lint
       (model_xml
          ~components:
            {|<component name="a" mttf="fast" mttr="10"/>
              <component name="b" mttf="2000" mttr="20"/>|}
          ()));
  check_silent "clean model" "ARC-X001" (lint (model_xml ()))

(* Every schema error is its own positioned ARC-X001, not only the first:
   three unparsable attributes on two elements. *)
let test_x001_each_positioned () =
  let diags, model = Lint.lint_file "fixtures/bad_cost.xml" in
  let x001 = List.filter (fun d -> d.D.code = "ARC-X001") diags in
  Alcotest.(check (list (pair string (option int))))
    "one X001 per bad attribute, at its element"
    [
      ("<component>", Some 8); ("<repair-unit>", Some 12); ("<repair-unit>", Some 12);
    ]
    (List.map (fun d -> (d.D.subject, d.D.line)) x001);
  Alcotest.(check bool) "no model" true (model = None)

(* ------------------------------------------------------------------ *)
(* Model layer *)

let test_m001 () =
  check_fires "tree ref" "ARC-M001"
    (lint (model_xml ~tree:{|<or><basic ref="a"/><basic ref="c"/></or>|} ()));
  check_fires "unknown mode" "ARC-M001"
    (lint (model_xml ~tree:{|<or><basic ref="a:leak"/><basic ref="b"/></or>|} ()));
  check_silent "known mode" "ARC-M001"
    (lint (model_xml ~tree:{|<or><basic ref="a:failed"/><basic ref="b"/></or>|} ()))

let test_m002 () =
  check_fires "duplicate" "ARC-M002"
    (lint
       (model_xml
          ~components:
            {|<component name="a" mttf="1000" mttr="10"/>
              <component name="a" mttf="1000" mttr="10"/>
              <component name="b" mttf="2000" mttr="20"/>|}
          ()));
  check_silent "distinct" "ARC-M002" (lint (model_xml ()))

let test_m003 () =
  check_fires "repaired twice" "ARC-M003"
    (lint
       (model_xml
          ~repair:
            {|<repair-unit name="r1" strategy="fcfs" crews="1">
                <component ref="a"/><component ref="b"/>
              </repair-unit>
              <repair-unit name="r2" strategy="fcfs" crews="1">
                <component ref="b"/>
              </repair-unit>|}
          ()));
  check_silent "disjoint units" "ARC-M003" (lint (model_xml ()))

let test_m004 () =
  let xml =
    model_xml
      ~components:
        {|<component name="a" mttf="1000" mttr="10"/>
          <component name="b" mttf="2000" mttr="20"/>
          <component name="c" mttf="3000" mttr="30"/>|}
      ~repair:
        {|<repair-unit name="ru" strategy="fcfs" crews="1">
            <component ref="a"/><component ref="b"/><component ref="c"/>
          </repair-unit>|}
      ()
  in
  check_fires "unreferenced" "ARC-M004" (lint xml);
  (* referenced through a spare unit counts *)
  let spare_xml =
    model_xml
      ~components:
        {|<component name="a" mttf="1000" mttr="10"/>
          <component name="b" mttf="2000" mttr="20"/>
          <component name="c" mttf="3000" mttr="30"/>|}
      ~repair:
        {|<repair-unit name="ru" strategy="fcfs" crews="1">
            <component ref="a"/><component ref="b"/><component ref="c"/>
          </repair-unit>|}
      ~spares:
        {|<spare-unit name="s" mode="hot">
            <primary ref="a"/><spare ref="c"/>
          </spare-unit>|}
      ()
  in
  check_silent "spare member" "ARC-M004" (lint spare_xml)

let test_m005 () =
  let xml =
    model_xml
      ~repair:
        {|<repair-unit name="ru" strategy="fcfs" crews="1">
            <component ref="a"/>
          </repair-unit>|}
      ()
  in
  check_fires "outside organisation" "ARC-M005" (lint xml);
  (* a pure reliability model (no repair at all) stays quiet *)
  check_silent "reliability model" "ARC-M005" (lint (model_xml ~repair:"" ()))

let test_m006 () =
  let ded crews =
    model_xml
      ~repair:
        (Printf.sprintf
           {|<repair-unit name="ru" strategy="dedicated" crews="%d">
               <component ref="a"/><component ref="b"/>
             </repair-unit>|}
           crews)
      ()
  in
  check_fires "ignored crews" "ARC-M006" (lint (ded 3));
  check_silent "crews=1 idiom" "ARC-M006" (lint (ded 1));
  check_silent "one per component" "ARC-M006" (lint (ded 2))

let test_m007 () =
  let fcfs crews =
    model_xml
      ~repair:
        (Printf.sprintf
           {|<repair-unit name="ru" strategy="fcfs" crews="%d">
               <component ref="a"/><component ref="b"/>
             </repair-unit>|}
           crews)
      ()
  in
  check_fires "zero crews" "ARC-M007" (lint (fcfs 0));
  check_fires "more crews than components" "ARC-M007" (lint (fcfs 5));
  check_silent "sane crews" "ARC-M007" (lint (fcfs 2));
  Alcotest.(check bool) "zero crews is an error" true
    (D.count D.Error (lint (fcfs 0)) > 0)

let test_m008 () =
  check_fires "non-positive mttf" "ARC-M008"
    (lint
       (model_xml
          ~components:
            {|<component name="a" mttf="0" mttr="10"/>
              <component name="b" mttf="2000" mttr="20"/>|}
          ()));
  check_fires "non-finite mttr" "ARC-M008"
    (lint
       (model_xml
          ~components:
            {|<component name="a" mttf="1000" mttr="inf"/>
              <component name="b" mttf="2000" mttr="20"/>|}
          ()));
  check_silent "positive finite" "ARC-M008" (lint (model_xml ()))

let test_m009 () =
  check_fires "swapped means" "ARC-M009"
    (lint
       (model_xml
          ~components:
            {|<component name="a" mttf="10" mttr="1000"/>
              <component name="b" mttf="2000" mttr="20"/>|}
          ()));
  check_silent "ordered means" "ARC-M009" (lint (model_xml ()))

let test_m010 () =
  let stages s =
    model_xml
      ~components:
        (Printf.sprintf
           {|<component name="a" mttf="1000" mttr="10" repair-stages="%d"/>
             <component name="b" mttf="2000" mttr="20"/>|}
           s)
      ()
  in
  check_fires "zero stages" "ARC-M010" (lint (stages 0));
  check_fires "huge stages" "ARC-M010" (lint (stages 100));
  check_silent "erlang-4" "ARC-M010" (lint (stages 4))

(* A priority strategy may name its order in the attribute
   (strategy="priority:b,a"); ARC-M011 checks it against the unit's
   members. *)
let priority order =
  model_xml
    ~repair:
      (Printf.sprintf
         {|<repair-unit name="ru" strategy="priority:%s" crews="1">
             <component ref="a"/><component ref="b"/>
           </repair-unit>|}
         order)
    ()

let test_m011 () =
  check_fires "omission" "ARC-M011" (lint (priority "a"));
  check_fires "stranger" "ARC-M011" (lint (priority "a,b,z"));
  check_fires "duplicate" "ARC-M011" (lint (priority "a,a,b"));
  check_silent "exact cover" "ARC-M011" (lint (priority "b,a"))

(* one positioned diagnostic per bad attribute: a bad repair unit is
   reported next to a bad component, where the constructors would stop at
   the component *)
let test_m013 () =
  let m013 diags =
    List.filter_map
      (fun d ->
        if d.D.code = "ARC-M013" then Some (d.D.subject, d.D.line <> None)
        else None)
      diags
  in
  Alcotest.(check (list (pair string bool)))
    "two costs, two positioned diagnostics"
    [ ("component a", true); ("repair unit ru", true) ]
    (m013
       (lint
          (model_xml
             ~components:
               {|<component name="a" mttf="1000" mttr="10" failed-cost="-1"/>
                 <component name="b" mttf="2000" mttr="20"/>|}
             ~repair:
               {|<repair-unit name="ru" strategy="fcfs" crews="1" busy-cost="-2">
                   <component ref="a"/><component ref="b"/>
                 </repair-unit>|}
             ())));
  check_fires "non-finite cost" "ARC-M013"
    (lint
       (model_xml
          ~components:
            {|<component name="a" mttf="1000" mttr="10" operational-cost="inf"/>
              <component name="b" mttf="2000" mttr="20"/>|}
          ()));
  check_fires "empty model name" "ARC-M013" (lint (model_xml ~name:"" ()));
  check_fires "empty spare-unit name" "ARC-M013"
    (lint
       (model_xml
          ~spares:
            {|<spare-unit name="" mode="hot"><primary ref="a"/><spare ref="b"/></spare-unit>|}
          ()));
  check_silent "zero costs" "ARC-M013"
    (lint
       (model_xml
          ~components:
            {|<component name="a" mttf="1000" mttr="10" failed-cost="0" operational-cost="0"/>
              <component name="b" mttf="2000" mttr="20"/>|}
          ()))

let test_m012 () =
  let with_spares spares = model_xml ~spares () in
  check_fires "primary is spare" "ARC-M012"
    (lint
       (with_spares
          {|<spare-unit name="s" mode="hot">
              <primary ref="a"/><spare ref="a"/>
            </spare-unit>|}));
  check_fires "no primaries" "ARC-M012"
    (lint
       (with_spares
          {|<spare-unit name="s" mode="hot"><spare ref="a"/></spare-unit>|}));
  check_fires "warm factor out of range" "ARC-M012"
    (lint
       (with_spares
          {|<spare-unit name="s" mode="warm:1.5">
              <primary ref="a"/><spare ref="b"/>
            </spare-unit>|}));
  check_fires "double membership" "ARC-M012"
    (lint
       (with_spares
          {|<spare-unit name="s1" mode="hot">
              <primary ref="a"/><spare ref="b"/>
            </spare-unit>
            <spare-unit name="s2" mode="hot">
              <primary ref="b"/>
            </spare-unit>|}));
  check_silent "sane spare unit" "ARC-M012"
    (lint
       (with_spares
          {|<spare-unit name="s" mode="warm:0.5">
              <primary ref="a"/><spare ref="b"/>
            </spare-unit>|}))

(* ------------------------------------------------------------------ *)
(* Fault-tree structure *)

let test_f001 () =
  check_fires "single-input and" "ARC-F001"
    (lint
       (model_xml ~tree:{|<or><and><basic ref="a"/></and><basic ref="b"/></or>|} ()));
  check_fires "1-of-n" "ARC-F001"
    (lint
       (model_xml ~tree:{|<kofn k="1"><basic ref="a"/><basic ref="b"/></kofn>|} ()));
  check_fires "n-of-n" "ARC-F001"
    (lint
       (model_xml ~tree:{|<kofn k="2"><basic ref="a"/><basic ref="b"/></kofn>|} ()));
  check_silent "real or" "ARC-F001" (lint (model_xml ()))

let test_f002 () =
  check_fires "duplicate inputs" "ARC-F002"
    (lint
       (model_xml
          ~tree:{|<or><basic ref="a"/><basic ref="a"/><basic ref="b"/></or>|} ()));
  check_silent "distinct inputs" "ARC-F002" (lint (model_xml ()))

let test_f003 () =
  (* or(a, and(a, b)): the and-gate is absorbed by the bare a *)
  check_fires "absorbed input" "ARC-F003"
    (lint
       (model_xml
          ~tree:
            {|<or><basic ref="a"/>
                  <and><basic ref="a"/><basic ref="b"/></and>
                  <basic ref="b"/></or>|}
          ()));
  check_silent "irredundant tree" "ARC-F003"
    (lint
       (model_xml ~tree:{|<and><basic ref="a"/><basic ref="b"/></and>|} ()))

let test_f004 () =
  check_fires "empty gate" "ARC-F004"
    (lint (model_xml ~tree:{|<or><basic ref="a"/><and/></or>|} ()));
  check_fires "bad kofn bound" "ARC-F004"
    (lint
       (model_xml ~tree:{|<kofn k="5"><basic ref="a"/><basic ref="b"/></kofn>|} ()));
  check_silent "well-formed gates" "ARC-F004" (lint (model_xml ()))

(* ------------------------------------------------------------------ *)
(* Chain layer *)

let test_c001 () =
  check_fires "reliability model" "ARC-C001" (lint (model_xml ~repair:"" ()));
  check_silent "full coverage" "ARC-C001" (lint (model_xml ()));
  (* info severity: never fails a -Werror run *)
  let diags = lint (model_xml ~repair:"" ()) in
  Alcotest.(check int) "no errors" 0 (D.count D.Error diags);
  Alcotest.(check int) "no warnings" 0 (D.count D.Warning diags)

let test_c002 () =
  let two_mode repair =
    model_xml
      ~components:
        {|<component name="a" mttf="1000" mttr="10">
            <mode name="leak" mttf="500" mttr="5"/>
          </component>
          <component name="b" mttf="2000" mttr="20"/>|}
      ~repair
      ~tree:{|<or><basic ref="a"/><basic ref="b"/></or>|} ()
  in
  check_fires "unrepaired two-mode" "ARC-C002"
    (lint
       (two_mode
          {|<repair-unit name="ru" strategy="fcfs" crews="1">
              <component ref="b"/>
            </repair-unit>|}));
  check_silent "repaired two-mode" "ARC-C002"
    (lint
       (two_mode
          {|<repair-unit name="ru" strategy="fcfs" crews="1">
              <component ref="a"/><component ref="b"/>
            </repair-unit>|}))

let test_c003 () =
  check_fires "stiff rates" "ARC-C003"
    (lint
       (model_xml
          ~components:
            {|<component name="a" mttf="100000000" mttr="0.001"/>
              <component name="b" mttf="2000" mttr="20"/>|}
          ()));
  check_silent "mild rates" "ARC-C003" (lint (model_xml ()))

(* ------------------------------------------------------------------ *)
(* Query layer *)

let measure name query =
  Printf.sprintf {|<measure name="%s" query="%s"/>|} name query

let lint_q query = lint (model_xml ~measures:(measure "q" query) ())

let test_q001 () =
  check_fires "syntax" "ARC-Q001" (lint_q "P=? [ true U&lt;=100 &quot;down&quot;");
  (* numbers the PRISM lexer cannot convert *)
  check_fires "bad real" "ARC-Q001" (lint_q "P=? [ F&lt;=100 (x &gt; 2e) ]");
  check_fires "int overflow" "ARC-Q001"
    (lint_q "S=? [ (x &gt; 99999999999999999999) ]");
  check_silent "well-formed" "ARC-Q001"
    (lint_q "P=? [ true U&lt;=100 &quot;down&quot; ]")

let test_q002 () =
  check_fires "unknown label" "ARC-Q002" (lint_q "S=? [ &quot;ful_service&quot; ]");
  check_silent "component label" "ARC-Q002" (lint_q "S=? [ &quot;a_failed&quot; ]");
  check_silent "service label" "ARC-Q002" (lint_q "S=? [ &quot;sl_ge_0&quot; ]")

let test_q003 () =
  check_fires "unknown reward" "ARC-Q003" (lint_q "R{&quot;price&quot;}=? [ S ]");
  check_silent "cost reward" "ARC-Q003" (lint_q "R{&quot;cost&quot;}=? [ S ]")

let test_q004 () =
  check_fires "nested query" "ARC-Q004"
    (lint_q "P=? [ true U&lt;=10 P=? [ true U &quot;down&quot; ] ]");
  check_silent "nested bounded" "ARC-Q004"
    (lint_q "P=? [ true U&lt;=10 P&gt;=0.5 [ true U &quot;down&quot; ] ]")

let base_ctx () =
  let doc = Xml_kit.parse_string (model_xml ()) in
  let model, _ = Core.Xml_io.of_xml doc in
  QR.context_of_model model

let test_q005 () =
  check_fires "negative bound" "ARC-Q005"
    (lint_q "P=? [ true U&lt;=-5 &quot;down&quot; ]");
  (* the parser already rejects inverted interval literals (ARC-Q001); the
     AST route must catch them too *)
  check_fires "inverted interval (AST)" "ARC-Q005"
    (QR.check_ast (base_ctx ()) ~subject:"q"
       Csl.Ast.(P (Query, Until (True, Within (9., 3.), Label "down"))));
  check_silent "sane interval" "ARC-Q005"
    (lint_q "P=? [ true U[3,9] &quot;down&quot; ]")

let test_q006 () =
  check_fires "atomic expression" "ARC-Q006"
    (lint_q "P=? [ true U&lt;=10 a_st ]");
  check_silent "label only" "ARC-Q006" (lint_q "P=? [ true U&lt;=10 &quot;down&quot; ]")

let test_q007 () =
  (* steady-state query on a chain with several recurrent classes *)
  let split =
    model_xml
      ~components:
        {|<component name="a" mttf="1000" mttr="10">
            <mode name="leak" mttf="500" mttr="5"/>
          </component>
          <component name="b" mttf="2000" mttr="20"/>|}
      ~repair:
        {|<repair-unit name="ru" strategy="fcfs" crews="1">
            <component ref="b"/>
          </repair-unit>|}
      ~measures:(measure "avail" "S=? [ &quot;operational&quot; ]")
      ()
  in
  check_fires "split chain" "ARC-Q007" (lint split);
  check_silent "single class" "ARC-Q007"
    (lint_q "S=? [ &quot;operational&quot; ]")

let test_q008 () =
  check_fires "trivially true" "ARC-Q008"
    (lint_q "P&gt;=0 [ true U&lt;=10 &quot;down&quot; ]");
  check_fires "out of range" "ARC-Q008"
    (lint_q "P&gt;=1.5 [ true U&lt;=10 &quot;down&quot; ]");
  check_silent "informative bound" "ARC-Q008"
    (lint_q "P&gt;=0.99 [ true U&lt;=10 &quot;down&quot; ]")

(* ------------------------------------------------------------------ *)
(* PRISM layer (hand-written ASTs; these rules guard the export path) *)

let prism_model ?(constants = []) ?(formulas = []) ?(guard = Prism.Ast.Bool_lit true)
    () =
  {
    Prism.Ast.constants;
    formulas;
    labels = [];
    modules =
      [
        {
          Prism.Ast.mod_name = "m";
          mod_vars =
            [
              {
                Prism.Ast.var_name = "x";
                var_type = Prism.Ast.Tbool;
                var_init = None;
              };
            ];
          mod_commands =
            [
              {
                Prism.Ast.action = None;
                guard;
                alternatives =
                  [
                    {
                      Prism.Ast.weight = Prism.Ast.Real_lit 1.;
                      update = [ ("x", Prism.Ast.Bool_lit true) ];
                    };
                  ];
              };
            ];
        };
      ];
    rewards = [];
  }

let const name v =
  {
    Prism.Ast.const_name = name;
    const_type = Prism.Ast.Cint;
    const_value = Prism.Ast.Int_lit v;
  }

let test_p001 () =
  let dead =
    prism_model ~constants:[ const "n" 0 ]
      ~guard:Prism.Ast.(Binop (Gt, Var "n", Int_lit 0))
      ()
  in
  check_fires "dead guard" "ARC-P001" (Lint.Prism_rules.check dead);
  let live =
    prism_model ~constants:[ const "n" 1 ]
      ~guard:Prism.Ast.(Binop (Gt, Var "n", Int_lit 0))
      ()
  in
  check_silent "live guard" "ARC-P001" (Lint.Prism_rules.check live);
  (* state-dependent guards are not statically decidable: stay silent *)
  let dynamic = prism_model ~guard:Prism.Ast.(Unop (Not, Var "x")) () in
  check_silent "dynamic guard" "ARC-P001" (Lint.Prism_rules.check dynamic)

let test_p002 () =
  check_fires "unused constant" "ARC-P002"
    (Lint.Prism_rules.check (prism_model ~constants:[ const "n" 3 ] ()));
  check_silent "used constant" "ARC-P002"
    (Lint.Prism_rules.check
       (prism_model ~constants:[ const "n" 3 ]
          ~guard:Prism.Ast.(Binop (Gt, Var "n", Int_lit 0))
          ()))

let test_p003 () =
  let formula =
    { Prism.Ast.formula_name = "busy"; formula_body = Prism.Ast.Var "x" }
  in
  check_fires "unused formula" "ARC-P003"
    (Lint.Prism_rules.check (prism_model ~formulas:[ formula ] ()));
  check_silent "used formula" "ARC-P003"
    (Lint.Prism_rules.check
       (prism_model ~formulas:[ formula ] ~guard:(Prism.Ast.Var "busy") ()))

let test_to_prism_output_lints_clean () =
  let doc = Xml_kit.parse_string (model_xml ()) in
  let model, _ = Core.Xml_io.of_xml doc in
  let prism = Core.To_prism.translate model in
  Alcotest.(check (list string)) "no ARC-P findings" []
    (codes (Lint.Prism_rules.check prism))

(* ------------------------------------------------------------------ *)
(* lint_model: the API route used by the debug hook *)

let test_lint_model_api () =
  let doc = Xml_kit.parse_string (model_xml ()) in
  let model, _ = Core.Xml_io.of_xml doc in
  Alcotest.(check (list string)) "clean model, clean query" []
    (codes (Lint.lint_model ~queries:[ ("q", {|S=? [ "down" ]|}) ] model));
  check_fires "bad query through the API" "ARC-Q002"
    (Lint.lint_model ~queries:[ ("q", {|S=? [ "nope" ]|}) ] model)

(* ------------------------------------------------------------------ *)
(* Positions *)

let test_positions () =
  let xml = model_xml ~tree:{|<or><basic ref="zz"/><basic ref="b"/></or>|} () in
  let diags = Lint.lint_string ~file:"t.xml" xml in
  match List.find_opt (fun d -> d.D.code = "ARC-M001") diags with
  | None -> Alcotest.fail "expected ARC-M001"
  | Some d ->
      Alcotest.(check (option string)) "file" (Some "t.xml") d.D.file;
      Alcotest.(check bool) "has line" true (d.D.line <> None);
      Alcotest.(check bool)
        "renders as file:line:col" true
        (String.length (D.to_string d) > 10
        && String.sub (D.to_string d) 0 6 = "t.xml:")

let test_xml_locator () =
  let doc, pos = Xml_kit.parse_string_located "<a>\n  <b/>\n</a>" in
  match Xml_kit.find_child doc "b" with
  | None -> Alcotest.fail "no <b> child"
  | Some b -> (
      match pos b with
      | None -> Alcotest.fail "no position for <b>"
      | Some (line, col) ->
          Alcotest.(check int) "line" 2 line;
          Alcotest.(check int) "column" 3 col)

let test_schema_error_position () =
  let doc, pos =
    Xml_kit.parse_string_located
      "<arcade name=\"m\">\n<components>\n<component name=\"a\"/>\n</components>\n<fault-tree><basic ref=\"a\"/></fault-tree>\n</arcade>"
  in
  match Core.Xml_io.of_xml ~file:"t.xml" ~pos doc with
  | _ -> Alcotest.fail "expected Schema_error"
  | exception Core.Xml_io.Schema_error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message %S carries position" msg)
        true
        (String.length msg >= 9 && String.sub msg 0 9 = "t.xml:3:1")

(* of_xml raises Schema_error and nothing else, positioned: at the
   offending element for a schema error or a record the constructors
   reject (a negative mean time), at the root for a model they reject as
   a whole (a duplicate component). *)
let test_of_xml_schema_error_only () =
  let check_prefix what prefix f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Schema_error" what
    | exception Core.Xml_io.Schema_error msg ->
        Alcotest.(check string)
          (what ^ ": message prefix")
          prefix
          (String.sub msg 0 (min (String.length msg) (String.length prefix)))
  in
  List.iter
    (fun (file, at) ->
      let path = "fixtures/" ^ file in
      check_prefix file (path ^ ":" ^ at) (fun () -> Core.Xml_io.load path))
    [
      ("bad_cost.xml", "8:5: attribute failed-cost");
      ("bad_units.xml", "10:5: unknown repair strategy");
      ("no_name.xml", "4:1: missing attribute");
      ("broken_model.xml", "14:5: Component.make");
    ];
  let doc, pos =
    Xml_kit.parse_string_located
      (model_xml
         ~components:
           {|<component name="a" mttf="1000" mttr="10"/>
             <component name="a" mttf="1000" mttr="10"/>
             <component name="b" mttf="2000" mttr="20"/>|}
         ())
  in
  check_prefix "duplicate component" "dup.xml:1:1: Model: duplicate component a"
    (fun () -> Core.Xml_io.of_xml ~file:"dup.xml" ~pos doc)

(* Extra queries get the checks of the embedded measures, from the same
   query pass: the split-chain warning fires for both. *)
let test_extra_queries () =
  let diags, _ =
    Lint.lint_file ~queries:[ {|S=? [ "operational" ]|} ] "fixtures/broken_chain.xml"
  in
  let q007 =
    List.filter_map
      (fun d -> if d.D.code = "ARC-Q007" then Some d.D.subject else None)
      diags
  in
  Alcotest.(check (list string))
    "Q007 for the measure and the query"
    [ "measure availability"; "query[0]" ]
    q007

(* The service-level labels lint accepts are exactly those the CSL model
   resolves, on every shipped model, whether the model is wrapped with
   lint's levels (as a daemon session does) or enumerates its own. *)
let test_levels_agree () =
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".xml" then begin
        let path = Filename.concat "../models" file in
        let src = In_channel.with_open_bin path In_channel.input_all in
        match Lint.lint_source src with
        | _, Some (model, Some levels) ->
            let n = List.length levels in
            let ctx = Lint.Query_rules.context_of_model ~levels:(Some levels) model in
            let sl =
              List.filter
                (fun l -> String.length l > 6 && String.sub l 0 6 = "sl_ge_")
                ctx.Lint.Query_rules.labels
            in
            Alcotest.(check (list string))
              (file ^ ": lint's level labels")
              (List.init n (Printf.sprintf "sl_ge_%d"))
              sl;
            List.iter
              (fun (how, levels) ->
                let module S = Core.Measures.Session in
                let m = S.chain (S.create ?levels model) S.Symmetric in
                let csl = Core.Measures.to_csl_model m in
                for i = 0 to n do
                  Alcotest.(check bool)
                    (Printf.sprintf "%s (%s): sl_ge_%d resolves" file how i)
                    (i < n)
                    (csl.Csl.Checker.label (Printf.sprintf "sl_ge_%d" i) <> None)
                done)
              [ ("lint's levels", Some levels); ("own levels", None) ]
        | _ -> Alcotest.failf "%s: expected a model with enumerated levels" file
      end)
    (Sys.readdir "../models")

(* lint_source hands back the model its query pass built and the service
   levels it enumerated, so a caller converts the source and enumerates
   the levels once; nothing on any failure *)
let test_lint_source_model () =
  let line2 = "../models/line2_ded.xml" in
  let src = In_channel.with_open_bin line2 In_channel.input_all in
  (match Lint.lint_source src with
  | [], Some (m, levels) ->
      Alcotest.(check bool)
        "the model Xml_io builds" true
        (m = fst (Core.Xml_io.load line2));
      Alcotest.(check bool)
        "its service levels" true
        (levels = Some (Core.Model.service_levels m))
  | _ -> Alcotest.fail "clean model: expected no diagnostics and a model");
  List.iter
    (fun (what, src) ->
      Alcotest.(check bool) what true (snd (Lint.lint_source src) = None))
    [
      ("parse error", "<arcade name=\"m\"><unclosed>");
      ( "static error",
        model_xml ~tree:{|<or><basic ref="zz"/><basic ref="b"/></or>|} () );
    ]

let test_csl_parser_position () =
  match Csl.Parser.parse "S=?\nX [ \"down\" ]" with
  | _ -> Alcotest.fail "expected syntax error"
  | exception Csl.Parser.Syntax_error { line; column; _ } ->
      Alcotest.(check int) "line" 2 line;
      Alcotest.(check int) "column" 1 column

(* ------------------------------------------------------------------ *)
(* Shipped models lint clean; seeded fixtures fire exactly the expected
   codes *)

let models_dir = "../models"

let test_shipped_models_clean () =
  let files =
    Sys.readdir models_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xml")
    |> List.sort compare
  in
  Alcotest.(check bool) "found the shipped models" true (List.length files >= 12);
  List.iter
    (fun f ->
      let diags, _ = Lint.lint_file (Filename.concat models_dir f) in
      Alcotest.(check (list string)) (f ^ " is clean") [] (codes diags))
    files

let expected_fixture_codes =
  [
    ( "fixtures/broken_model.xml",
      [ "ARC-M001"; "ARC-M002"; "ARC-M003"; "ARC-M008"; "ARC-M009"; "ARC-M010" ] );
    ( "fixtures/broken_tree.xml",
      [
        "ARC-C001"; "ARC-F001"; "ARC-F002"; "ARC-F003"; "ARC-M004"; "ARC-M005";
        "ARC-M006";
      ] );
    ( "fixtures/broken_queries.xml",
      [
        "ARC-Q001"; "ARC-Q002"; "ARC-Q003"; "ARC-Q004"; "ARC-Q005"; "ARC-Q006";
        "ARC-Q008";
      ] );
    ( "fixtures/broken_chain.xml",
      [ "ARC-C001"; "ARC-C002"; "ARC-C003"; "ARC-M005"; "ARC-Q007" ] );
  ]

let test_seeded_defects () =
  List.iter
    (fun (file, expected) ->
      Alcotest.(check (list string))
        (file ^ " fires exactly the seeded codes")
        expected
        (codes (fst (Lint.lint_file file))))
    expected_fixture_codes

(* ------------------------------------------------------------------ *)
(* Property: static implies dynamic. Any formula the query lint accepts
   (no error-level findings) must not raise Csl.Checker.Unsupported when
   evaluated on the Line 2 DED model. *)

let line2 =
  lazy
    (let model, _ = Core.Xml_io.load (Filename.concat models_dir "line2_ded.xml") in
     let m = Core.Measures.analyze model in
     (QR.context_of_model model, Core.Measures.to_csl_model m))

let formula_gen =
  let open QCheck.Gen in
  let open Csl.Ast in
  let label =
    oneofl
      [
        "down"; "operational"; "full_service"; "sl_ge_0"; "st1_failed";
        "pump1_failed"; "bogus"; "ful_service";
      ]
  in
  let reward = oneofl [ Some "cost"; Some "repair_cost"; Some "bogus"; None ] in
  let interval =
    oneofl [ Unbounded; Upto 10.; Within (1., 5.); Upto (-3.); Within (9., 3.) ]
  in
  let reward_query =
    oneofl [ Instantaneous 5.; Cumulative 10.; Steady; Instantaneous (-1.) ]
  in
  let bound =
    oneofl
      [ Query; Bounded (Ge, 0.5); Bounded (Le, 0.9); Bounded (Ge, 0.); Bounded (Gt, 1.5) ]
  in
  let rec state depth =
    if depth = 0 then
      oneof [ return True; return False; map (fun l -> Label l) label ]
    else
      frequency
        [
          (3, map (fun l -> Label l) label);
          (2, map (fun f -> Not f) (state (depth - 1)));
          (2, map2 (fun a b -> And (a, b)) (state (depth - 1)) (state (depth - 1)));
          (2, map2 (fun a b -> Or (a, b)) (state (depth - 1)) (state (depth - 1)));
          (2, map2 (fun b p -> P (b, p)) bound (path (depth - 1)));
          (2, map2 (fun b f -> S (b, f)) bound (state (depth - 1)));
          (1, map2 (fun r b -> R (r, b, Cumulative 10.)) reward bound);
        ]
  and path depth =
    oneof
      [
        map2 (fun i f -> Next (i, f)) interval (state depth);
        map2 (fun i f -> Eventually (i, f)) interval (state depth);
        (let* a = state depth and* i = interval and* b = state depth in
         return (Until (a, i, b)));
      ]
  in
  let* shape = QCheck.Gen.int_range 0 3 in
  match shape with
  | 0 -> let* p = path 1 in return (P (Query, p))
  | 1 -> let* f = state 1 in return (S (Query, f))
  | 2 ->
      let* r = reward and* q = reward_query in
      return (R (r, Query, q))
  | _ -> state 2

let prop_static_implies_dynamic =
  QCheck.Test.make ~count:40
    ~name:"query lint accepts => Checker does not raise Unsupported"
    (QCheck.make ~print:Csl.Ast.to_string formula_gen)
    (fun formula ->
      let ctx, csl = Lazy.force line2 in
      let diags = QR.check_ast ctx ~subject:"prop" formula in
      if List.exists (fun d -> d.D.severity = D.Error) diags then true
      else
        match Csl.Checker.check csl formula with
        | _ -> true
        | exception Csl.Checker.Unsupported msg ->
            QCheck.Test.fail_reportf
              "lint accepted %s but the checker raised Unsupported (%s)"
              (Csl.Ast.to_string formula) msg)

(* ------------------------------------------------------------------ *)
(* Property: the one reader never raises. Mutants of the shipped models
   (junk or dropped attributes, dropped, duplicated, renamed or wrapped
   elements) lint without raising, and Xml_io.of_xml raises nothing but
   Schema_error on them. *)

let junk = [| ""; "x"; "-1"; "0"; "nan"; "1e999"; "maybe"; "warm:2"; "priority:zz" |]

let rec mutate st node =
  let pick n = Random.State.int st n = 0 in
  match node with
  | Xml_kit.Text _ -> [ node ]
  | Xml_kit.Element (tag, attrs, kids) -> (
      let attrs =
        List.filter_map
          (fun (k, v) ->
            if pick 12 then None
            else if pick 8 then Some (k, junk.(Random.State.int st (Array.length junk)))
            else Some (k, v))
          attrs
      in
      let el = Xml_kit.Element (tag, attrs, List.concat_map (mutate st) kids) in
      match Random.State.int st 24 with
      | 0 -> []
      | 1 -> [ el; el ]
      | 2 -> [ Xml_kit.Element ("bogus", [], [ el ]) ]
      | 3 -> [ Xml_kit.Element (tag ^ "-x", attrs, []) ]
      | _ -> [ el ])

let test_mutants_never_raise () =
  let st = Random.State.make [| 36 |] in
  let files =
    Sys.readdir models_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xml")
    |> List.sort compare
  in
  Alcotest.(check int) "the shipped models" 12 (List.length files);
  List.iter
    (fun f ->
      let doc = Xml_kit.parse_file (Filename.concat models_dir f) in
      for i = 1 to 25 do
        let mutant =
          match mutate st doc with
          | root :: _ -> root
          | [] -> Xml_kit.Element ("arcade", [], [])
        in
        let src = Xml_kit.to_string mutant in
        (match Lint.lint_source src with
        | _ -> ()
        | exception e ->
            Alcotest.failf "%s mutant %d: lint raised %s\n%s" f i
              (Printexc.to_string e) src);
        match Core.Xml_io.of_xml mutant with
        | _ | (exception Core.Xml_io.Schema_error _) -> ()
        | exception e ->
            Alcotest.failf "%s mutant %d: of_xml raised %s\n%s" f i
              (Printexc.to_string e) src
      done)
    files

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lint"
    [
      ( "schema",
        [
          Alcotest.test_case "clean base" `Quick test_clean_base;
          Alcotest.test_case "ARC-X001" `Quick test_x001;
          Alcotest.test_case "ARC-X001 per error" `Quick test_x001_each_positioned;
        ] );
      ( "model-rules",
        [
          Alcotest.test_case "ARC-M001" `Quick test_m001;
          Alcotest.test_case "ARC-M002" `Quick test_m002;
          Alcotest.test_case "ARC-M003" `Quick test_m003;
          Alcotest.test_case "ARC-M004" `Quick test_m004;
          Alcotest.test_case "ARC-M005" `Quick test_m005;
          Alcotest.test_case "ARC-M006" `Quick test_m006;
          Alcotest.test_case "ARC-M007" `Quick test_m007;
          Alcotest.test_case "ARC-M008" `Quick test_m008;
          Alcotest.test_case "ARC-M009" `Quick test_m009;
          Alcotest.test_case "ARC-M010" `Quick test_m010;
          Alcotest.test_case "ARC-M011" `Quick test_m011;
          Alcotest.test_case "ARC-M012" `Quick test_m012;
          Alcotest.test_case "ARC-M013" `Quick test_m013;
        ] );
      ( "fault-tree-rules",
        [
          Alcotest.test_case "ARC-F001" `Quick test_f001;
          Alcotest.test_case "ARC-F002" `Quick test_f002;
          Alcotest.test_case "ARC-F003" `Quick test_f003;
          Alcotest.test_case "ARC-F004" `Quick test_f004;
        ] );
      ( "chain-rules",
        [
          Alcotest.test_case "ARC-C001" `Quick test_c001;
          Alcotest.test_case "ARC-C002" `Quick test_c002;
          Alcotest.test_case "ARC-C003" `Quick test_c003;
        ] );
      ( "query-rules",
        [
          Alcotest.test_case "ARC-Q001" `Quick test_q001;
          Alcotest.test_case "ARC-Q002" `Quick test_q002;
          Alcotest.test_case "ARC-Q003" `Quick test_q003;
          Alcotest.test_case "ARC-Q004" `Quick test_q004;
          Alcotest.test_case "ARC-Q005" `Quick test_q005;
          Alcotest.test_case "ARC-Q006" `Quick test_q006;
          Alcotest.test_case "ARC-Q007" `Quick test_q007;
          Alcotest.test_case "ARC-Q008" `Quick test_q008;
        ] );
      ( "prism-rules",
        [
          Alcotest.test_case "ARC-P001" `Quick test_p001;
          Alcotest.test_case "ARC-P002" `Quick test_p002;
          Alcotest.test_case "ARC-P003" `Quick test_p003;
          Alcotest.test_case "export lints clean" `Quick
            test_to_prism_output_lints_clean;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "lint_model API" `Quick test_lint_model_api;
          Alcotest.test_case "positions" `Quick test_positions;
          Alcotest.test_case "xml locator" `Quick test_xml_locator;
          Alcotest.test_case "schema error position" `Quick
            test_schema_error_position;
          Alcotest.test_case "csl parser position" `Quick
            test_csl_parser_position;
          Alcotest.test_case "lint_source model" `Quick test_lint_source_model;
          Alcotest.test_case "level labels agree" `Quick test_levels_agree;
          Alcotest.test_case "of_xml raises Schema_error only" `Quick
            test_of_xml_schema_error_only;
          Alcotest.test_case "extra queries" `Quick test_extra_queries;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "shipped models clean" `Quick
            test_shipped_models_clean;
          Alcotest.test_case "seeded defects" `Quick test_seeded_defects;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_static_implies_dynamic ]
        @ [ Alcotest.test_case "mutants never raise" `Quick test_mutants_never_raise ] );
    ]
