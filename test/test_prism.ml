(* Tests for the PRISM-subset language: lexer/parser, expression evaluator,
   pretty-printer roundtrip, and the state-space builder (interleaving and
   synchronized semantics, labels, rewards). *)

module Ast = Prism.Ast
module Parser = Prism.Parser
module Eval = Prism.Eval
module Builder = Prism.Builder
module Printer = Prism.Printer

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let parse_expr = Parser.parse_expr

let eval_closed expr =
  Eval.eval
    (Eval.make_env ~constants:[] ~formulas:[] ~lookup_var:(fun _ -> None))
    expr

let check_value msg expected input =
  let v = eval_closed (parse_expr input) in
  match (expected, v) with
  | `I i, Eval.Vint j -> Alcotest.(check int) msg i j
  | `R r, Eval.Vreal s -> check_close msg r s
  | `B b, Eval.Vbool c -> Alcotest.(check bool) msg b c
  | _ -> Alcotest.failf "%s: wrong value kind" msg

(* ------------------------------------------------------------------ *)
(* Expressions *)

let test_expr_arithmetic () =
  check_value "precedence" (`I 7) "1 + 2 * 3";
  check_value "parens" (`I 9) "(1 + 2) * 3";
  check_value "division is real" (`R 0.5) "1 / 2";
  check_value "unary minus" (`I (-3)) "-3";
  check_value "scientific" (`R 150.) "1.5e2";
  check_value "pow int" (`I 8) "pow(2, 3)";
  check_value "mod" (`I 1) "mod(7, 3)";
  check_value "min max" (`I 2) "min(max(1, 2), 3)"

let test_expr_boolean () =
  check_value "and or precedence" (`B true) "true | false & false";
  check_value "not" (`B false) "!true";
  check_value "implies" (`B true) "false => false";
  check_value "iff" (`B false) "true <=> false";
  check_value "relational" (`B true) "1 + 1 <= 2";
  check_value "equality" (`B true) "2 = 2.0";
  check_value "ternary" (`I 5) "1 < 2 ? 5 : 6"

let test_expr_errors () =
  (match eval_closed (parse_expr "1 / 0") with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "division by zero");
  (match eval_closed (parse_expr "unbound_name") with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "unbound");
  match eval_closed (parse_expr "1 & true") with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "type error"

let test_parse_errors () =
  List.iter
    (fun input ->
      match Parser.parse_expr input with
      | exception Parser.Syntax_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "expected syntax error on %S" input))
    [ ""; "1 +"; "(1"; "min("; "?" ];
  (* numbers the lexer cannot convert are positioned syntax errors *)
  List.iter
    (fun (input, column) ->
      match Parser.parse_expr input with
      | exception Parser.Syntax_error { line; column = c; message } ->
          Alcotest.(check (pair int int)) ("position of " ^ input) (1, column) (line, c);
          Alcotest.(check bool) ("message of " ^ input) true
            (String.starts_with ~prefix:"bad number" message)
      | _ -> Alcotest.fail (Printf.sprintf "expected syntax error on %S" input))
    [ ("x > 2e", 5); ("x > 99999999999999999999", 5) ]

let test_expr_associativity () =
  (* => and <=> are right-associative; relational operators do not chain *)
  Alcotest.(check bool) "implies right assoc" true
    (parse_expr "true => false => true"
    = Ast.Binop (Ast.Implies, Ast.Bool_lit true,
                 Ast.Binop (Ast.Implies, Ast.Bool_lit false, Ast.Bool_lit true)));
  (match parse_expr "1 < 2 < 3" with
  | exception Parser.Syntax_error _ -> ()
  | e -> Alcotest.failf "chained comparison accepted: %s" (Printer.expr_to_string e));
  (* subtraction is left-associative *)
  (match eval_closed (parse_expr "10 - 3 - 2") with
  | Eval.Vint 5 -> ()
  | _ -> Alcotest.fail "left associativity of minus")

let test_printer_minimal_parens () =
  (* the printer adds parentheses only where the grammar needs them *)
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected
        (Printer.expr_to_string (parse_expr input)))
    [
      ("1 + 2 * 3", "1 + 2 * 3");
      ("(1 + 2) * 3", "(1 + 2) * 3");
      ("!(a & b)", "!(a & b)");
      ("a => (b => c)", "a => b => c");
      ("min(1, 2) + 3", "min(1, 2) + 3");
    ]

let test_constants_resolution () =
  let consts =
    Eval.eval_constants
      [
        { Ast.const_name = "n"; const_type = Ast.Cint; const_value = parse_expr "3" };
        {
          Ast.const_name = "r";
          const_type = Ast.Cdouble;
          const_value = parse_expr "1 / (n + 1)";
        };
      ]
  in
  match List.assoc "r" consts with
  | Eval.Vreal r -> check_close "chained constants" 0.25 r
  | _ -> Alcotest.fail "expected real"

let test_formula_cycle_detected () =
  let env =
    Eval.make_env ~constants:[]
      ~formulas:
        [
          { Ast.formula_name = "f"; formula_body = parse_expr "g + 1" };
          { Ast.formula_name = "g"; formula_body = parse_expr "f + 1" };
        ]
      ~lookup_var:(fun _ -> None)
  in
  match Eval.eval env (parse_expr "f") with
  | exception Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "cycle not detected"

(* ------------------------------------------------------------------ *)
(* Model parsing and printing *)

let small_model =
  {|
ctmc
// a machine with failure and repair
const double lambda = 0.01;
const double mu = 1;

module machine
  up : bool init true;
  [] up -> lambda : (up' = false);
  [] !up -> mu : (up' = true);
endmodule

label "broken" = !up;

rewards "uptime"
  up : 1;
endrewards
|}

let test_parse_model_shape () =
  let m = Parser.parse_model small_model in
  Alcotest.(check int) "constants" 2 (List.length m.Ast.constants);
  Alcotest.(check int) "modules" 1 (List.length m.Ast.modules);
  Alcotest.(check int) "labels" 1 (List.length m.Ast.labels);
  Alcotest.(check int) "rewards" 1 (List.length m.Ast.rewards);
  let machine = List.hd m.Ast.modules in
  Alcotest.(check int) "commands" 2 (List.length machine.Ast.mod_commands)

let test_print_parse_roundtrip () =
  let m = Parser.parse_model small_model in
  let printed = Printer.model_to_string m in
  let m2 = Parser.parse_model printed in
  Alcotest.(check bool) "ast preserved" true (m = m2)

let test_parse_model_rejects () =
  List.iter
    (fun input ->
      match Parser.parse_model input with
      | exception Parser.Syntax_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "expected rejection of %S" input))
    [
      "dtmc\n";
      "ctmc module m endmodule extra";
      "ctmc init true endinit";
      "ctmc rewards [a] true : 1; endrewards";
    ]

(* ------------------------------------------------------------------ *)
(* Builder *)

let build src = Builder.build (Parser.parse_model src)

let test_build_two_state () =
  let b = build small_model in
  Alcotest.(check int) "states" 2 (Ctmc.Chain.states b.Builder.chain);
  Alcotest.(check int) "transitions" 2 (Ctmc.Chain.transition_count b.Builder.chain);
  let broken = Builder.label_pred b "broken" in
  let avail =
    Ctmc.Steady_state.long_run_probability b.Builder.chain ~pred:(fun s -> not (broken s))
  in
  check_close "availability" (1. /. 1.01) avail

let test_build_interleaving () =
  (* two independent 2-state machines: 4 states, 8 transitions *)
  let src =
    {|
ctmc
module m1
  x : bool init true;
  [] x -> 1 : (x' = false);
  [] !x -> 2 : (x' = true);
endmodule
module m2
  y : bool init true;
  [] y -> 3 : (y' = false);
  [] !y -> 4 : (y' = true);
endmodule
|}
  in
  let b = build src in
  Alcotest.(check int) "states" 4 (Ctmc.Chain.states b.Builder.chain);
  Alcotest.(check int) "transitions" 8 (Ctmc.Chain.transition_count b.Builder.chain)

let test_build_synchronization () =
  (* synchronized failure: both flip together at the product rate 2*0.5=1 *)
  let src =
    {|
ctmc
module m1
  x : bool init true;
  [sync] x -> 2 : (x' = false);
endmodule
module m2
  y : bool init true;
  [sync] y -> 0.5 : (y' = false);
endmodule
|}
  in
  let b = build src in
  Alcotest.(check int) "states" 2 (Ctmc.Chain.states b.Builder.chain);
  check_close "product rate" 1. (Ctmc.Chain.rate b.Builder.chain 0 1)

let test_build_sync_requires_all () =
  (* m2 never enables the action -> no transition at all *)
  let src =
    {|
ctmc
module m1
  x : bool init true;
  [sync] x -> 2 : (x' = false);
endmodule
module m2
  y : bool init true;
  [sync] false -> 1 : (y' = false);
endmodule
|}
  in
  let b = build src in
  Alcotest.(check int) "blocked sync" 1 (Ctmc.Chain.states b.Builder.chain)

let test_build_alternatives () =
  (* one command with two rate alternatives *)
  let src =
    {|
ctmc
module m
  s : [0..2] init 0;
  [] s = 0 -> 1 : (s' = 1) + 3 : (s' = 2);
endmodule
|}
  in
  let b = build src in
  Alcotest.(check int) "states" 3 (Ctmc.Chain.states b.Builder.chain);
  let idx v =
    match b.Builder.index_of_vector v with
    | Some i -> i
    | None -> Alcotest.fail "state not found"
  in
  check_close "first branch" 1.
    (Ctmc.Chain.rate b.Builder.chain (idx [| 0 |]) (idx [| 1 |]));
  check_close "second branch" 3.
    (Ctmc.Chain.rate b.Builder.chain (idx [| 0 |]) (idx [| 2 |]))

let test_build_range_violation () =
  let src =
    {|
ctmc
module m
  s : [0..1] init 0;
  [] s < 5 -> 1 : (s' = s + 1);
endmodule
|}
  in
  match build src with
  | exception Builder.Build_error _ -> ()
  | _ -> Alcotest.fail "expected out-of-range error"

let test_build_foreign_write_rejected () =
  let src =
    {|
ctmc
module m1
  x : bool init true;
  [] x -> 1 : (y' = false);
endmodule
module m2
  y : bool init true;
endmodule
|}
  in
  match build src with
  | exception Builder.Build_error _ -> ()
  | _ -> Alcotest.fail "expected ownership error"

let test_build_self_loops_dropped () =
  let src =
    {|
ctmc
module m
  x : bool init true;
  [] x -> 5 : (x' = true);
  [] x -> 1 : (x' = false);
endmodule
|}
  in
  let b = build src in
  (* the self-loop must not contribute *)
  Alcotest.(check int) "transitions" 1 (Ctmc.Chain.transition_count b.Builder.chain)

let test_build_rewards_and_state_pred () =
  let b = build small_model in
  let uptime = List.assoc (Some "uptime") b.Builder.reward_structures in
  check_close "reward in initial state" 1. uptime.(0);
  let pred = Builder.state_pred b (parse_expr "up = false") in
  let n_down = ref 0 in
  for s = 0 to Ctmc.Chain.states b.Builder.chain - 1 do
    if pred s then incr n_down
  done;
  Alcotest.(check int) "one down state" 1 !n_down

let test_build_max_states_guard () =
  let src =
    {|
ctmc
module m
  s : [0..1000] init 0;
  [] s < 1000 -> 1 : (s' = s + 1);
endmodule
|}
  in
  match Builder.build ~max_states:10 (Parser.parse_model src) with
  | exception Builder.Build_error _ -> ()
  | _ -> Alcotest.fail "expected max_states abort"

let test_builder_formulas_in_guards () =
  let src =
    {|
ctmc
formula busy = (a = 1 ? 1 : 0) + (b = 1 ? 1 : 0);
module m
  a : [0..1] init 0;
  b : [0..1] init 0;
  [] a = 0 & busy < 1 -> 1 : (a' = 1);
  [] b = 0 & busy < 1 -> 1 : (b' = 1);
  [] a = 1 -> 2 : (a' = 0);
  [] b = 1 -> 2 : (b' = 0);
endmodule
|}
  in
  let b = build src in
  (* busy < 1 forbids both being up simultaneously: 3 states, not 4 *)
  Alcotest.(check int) "mutual exclusion via formula" 3
    (Ctmc.Chain.states b.Builder.chain)

(* printer precedence: random expressions must roundtrip through the
   printer and parser *)
let expr_gen =
  QCheck.Gen.(
    sized_size (int_range 0 5)
      (fix (fun self n ->
           if n = 0 then
             oneof
               [
                 map (fun i -> Ast.Int_lit i) (int_range 0 9);
                 map (fun b -> Ast.Bool_lit b) bool;
                 return (Ast.Var "x");
               ]
           else
             let sub = self (n / 2) in
             oneof
               [
                 map (fun i -> Ast.Int_lit i) (int_range 0 9);
                 map2 (fun a b -> Ast.Binop (Ast.Add, a, b)) sub sub;
                 map2 (fun a b -> Ast.Binop (Ast.Mul, a, b)) sub sub;
                 map2 (fun a b -> Ast.Binop (Ast.Sub, a, b)) sub sub;
                 map2 (fun a b -> Ast.Binop (Ast.Lt, a, b)) sub sub;
                 map2 (fun a b -> Ast.Binop (Ast.And, Ast.Binop (Ast.Le, a, b),
                                             Ast.Binop (Ast.Ge, a, b))) sub sub;
                 map3 (fun c a b -> Ast.Ite (Ast.Binop (Ast.Lt, c, Ast.Int_lit 5), a, b))
                   sub sub sub;
                 map (fun a -> Ast.Unop (Ast.Neg, a)) sub;
                 map (fun l -> Ast.Call ("min", l)) (list_size (int_range 1 3) sub);
               ])))

let prop_printer_parser_roundtrip =
  QCheck.Test.make ~count:500 ~name:"printer/parser roundtrip on expressions"
    (QCheck.make expr_gen)
    (fun e ->
      let printed = Printer.expr_to_string e in
      Parser.parse_expr printed = e)

let () =
  Alcotest.run "prism"
    [
      ( "expressions",
        [
          Alcotest.test_case "arithmetic" `Quick test_expr_arithmetic;
          Alcotest.test_case "boolean" `Quick test_expr_boolean;
          Alcotest.test_case "evaluation errors" `Quick test_expr_errors;
          Alcotest.test_case "syntax errors" `Quick test_parse_errors;
          Alcotest.test_case "associativity" `Quick test_expr_associativity;
          Alcotest.test_case "minimal parentheses" `Quick test_printer_minimal_parens;
          Alcotest.test_case "constants" `Quick test_constants_resolution;
          Alcotest.test_case "formula cycles" `Quick test_formula_cycle_detected;
        ] );
      ( "model-syntax",
        [
          Alcotest.test_case "parse shape" `Quick test_parse_model_shape;
          Alcotest.test_case "print/parse roundtrip" `Quick test_print_parse_roundtrip;
          Alcotest.test_case "rejections" `Quick test_parse_model_rejects;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_printer_parser_roundtrip ] );
      ( "builder",
        [
          Alcotest.test_case "two-state machine" `Quick test_build_two_state;
          Alcotest.test_case "interleaving" `Quick test_build_interleaving;
          Alcotest.test_case "synchronization multiplies rates" `Quick
            test_build_synchronization;
          Alcotest.test_case "blocked synchronization" `Quick test_build_sync_requires_all;
          Alcotest.test_case "update alternatives" `Quick test_build_alternatives;
          Alcotest.test_case "range violation" `Quick test_build_range_violation;
          Alcotest.test_case "foreign write rejected" `Quick
            test_build_foreign_write_rejected;
          Alcotest.test_case "self-loops dropped" `Quick test_build_self_loops_dropped;
          Alcotest.test_case "rewards and predicates" `Quick
            test_build_rewards_and_state_pred;
          Alcotest.test_case "max states guard" `Quick test_build_max_states_guard;
          Alcotest.test_case "formulas in guards" `Quick test_builder_formulas_in_guards;
        ] );
    ]
