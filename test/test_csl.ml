(* Tests for the CSL/CSRL layer: the property parser and the model checker,
   validated on chains with closed-form answers. *)

module Ast = Csl.Ast
module Parser = Csl.Parser
module Checker = Csl.Checker
module Chain = Ctmc.Chain

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let formula = Alcotest.testable (Fmt.of_to_string Ast.to_string) ( = )

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_probability_query () =
  Alcotest.check formula "bounded until"
    (Ast.P (Ast.Query, Ast.Until (Ast.True, Ast.Upto 100., Ast.Label "down")))
    (Parser.parse {|P=? [ true U<=100 "down" ]|})

let test_parse_bounds () =
  Alcotest.check formula "P >= p"
    (Ast.P (Ast.Bounded (Ast.Ge, 0.99), Ast.Eventually (Ast.Unbounded, Ast.Label "ok")))
    (Parser.parse {|P>=0.99 [ F "ok" ]|});
  Alcotest.check formula "P < p"
    (Ast.P (Ast.Bounded (Ast.Lt, 0.01), Ast.Next (Ast.Unbounded, Ast.Label "bad")))
    (Parser.parse {|P<0.01 [ X "bad" ]|})

let test_parse_steady () =
  Alcotest.check formula "steady state"
    (Ast.S (Ast.Query, Ast.Not (Ast.Label "down")))
    (Parser.parse {|S=? [ !"down" ]|})

let test_parse_rewards () =
  Alcotest.check formula "named cumulative"
    (Ast.R (Some "cost", Ast.Query, Ast.Cumulative 10.))
    (Parser.parse {|R{"cost"}=? [ C<=10 ]|});
  Alcotest.check formula "instantaneous"
    (Ast.R (None, Ast.Query, Ast.Instantaneous 4.5))
    (Parser.parse {|R=? [ I=4.5 ]|});
  Alcotest.check formula "steady reward"
    (Ast.R (None, Ast.Query, Ast.Steady))
    (Parser.parse {|R=? [ S ]|})

let test_parse_boolean_structure () =
  Alcotest.check formula "connectives"
    (Ast.Implies (Ast.And (Ast.Label "a", Ast.Not (Ast.Label "b")), Ast.Or (Ast.True, Ast.False)))
    (Parser.parse {|"a" & !"b" => true | false|})

let test_parse_atomic_expression () =
  match Parser.parse {|P=? [ F<=10 (pumps >= 3) ]|} with
  | Ast.P (Ast.Query, Ast.Eventually (Ast.Upto 10., Ast.Atomic _)) -> ()
  | other -> Alcotest.failf "unexpected: %s" (Ast.to_string other)

let test_parse_globally_until () =
  Alcotest.check formula "globally"
    (Ast.P (Ast.Bounded (Ast.Ge, 0.5), Ast.Globally (Ast.Upto 8., Ast.Label "up")))
    (Parser.parse {|P>=0.5 [ G<=8 "up" ]|});
  Alcotest.check formula "unbounded until"
    (Ast.P (Ast.Query, Ast.Until (Ast.Label "a", Ast.Unbounded, Ast.Label "b")))
    (Parser.parse {|P=? [ "a" U "b" ]|})

let test_parse_interval () =
  Alcotest.check formula "interval until"
    (Ast.P (Ast.Query, Ast.Until (Ast.True, Ast.Within (2., 5.), Ast.Label "a")))
    (Parser.parse {|P=? [ true U[2,5] "a" ]|});
  Alcotest.check formula "interval eventually"
    (Ast.P (Ast.Bounded (Ast.Ge, 0.5), Ast.Eventually (Ast.Within (1., 2.), Ast.Label "b")))
    (Parser.parse {|P>=0.5 [ F[1,2] "b" ]|});
  (match Parser.parse {|P=? [ true U[5,2] "a" ]|} with
  | exception Parser.Syntax_error _ -> ()
  | _ -> Alcotest.fail "decreasing interval accepted")

let test_parse_errors () =
  List.iter
    (fun input ->
      match Parser.parse input with
      | exception Parser.Syntax_error _ -> ()
      | f -> Alcotest.failf "expected error on %S, got %s" input (Ast.to_string f))
    [
      "";
      "P=?";
      "P=? [ ]";
      {|P=? [ "a" ] extra|};
      "S=? [ X \"a\" ]";
      "R=? [ Q ]";
      (* numbers the PRISM lexer cannot convert *)
      "P=? [ F<=100 (x > 2e) ]";
      "S=? [ (x > 99999999999999999999) ]";
    ]

(* A malformed PRISM expression inside parentheses is reported at the
   offending token, not after the closing parenthesis. *)
let test_parse_error_positions () =
  List.iter
    (fun (input, want) ->
      match Parser.parse input with
      | exception Parser.Syntax_error { line; column; _ } ->
          Alcotest.(check (pair int int)) (String.escaped input) want (line, column)
      | f -> Alcotest.failf "expected error on %S, got %s" input (Ast.to_string f))
    [
      ("P=? [ F<=100 (x > 2e) ]", (1, 19));
      (* multi-line queries, as in an XML <measures> element *)
      ("S=? [ (x > 1 &\n   y > 2e) ]", (2, 8));
      ("S=? [\n  (x > 2e) ]", (2, 8));
    ]

(* Never raise: any token string parses to a formula or raises
   [Syntax_error], nothing else. The vocabulary mixes CSL and PRISM
   tokens with malformed numbers, so most strings are near misses. *)
let csl_tokens =
  [| "P"; "S"; "R"; "=?"; ">="; "<"; "<="; ">"; "="; "["; "]"; "("; ")";
     "{"; "}"; "F"; "G"; "X"; "U"; "C"; "I"; "!"; "&"; "|"; "=>"; ",";
     "true"; "false"; "x"; "\"a\""; "\"cost\""; "\""; "0"; "0.5"; "1e";
     "2e"; "1e3"; "1e400"; "99999999999999999999"; "-1"; "."; ".."; "+";
     "*"; "min"; "?" |]

let prop_csl_parse_never_raises =
  QCheck.Test.make ~count:2000
    ~name:"Csl.Parser.parse: a formula or Syntax_error"
    QCheck.(
      make ~print:Fun.id
        Gen.(
          map2 (String.concat)
            (oneofl [ " "; "" ])
            (list_size (int_range 0 14)
               (map (Array.get csl_tokens) (int_bound (Array.length csl_tokens - 1))))))
    (fun input ->
      match Parser.parse input with
      | _ -> true
      | exception Parser.Syntax_error _ -> true)

let test_to_string_roundtrip () =
  List.iter
    (fun input ->
      let f = Parser.parse input in
      Alcotest.check formula ("roundtrip " ^ input) f (Parser.parse (Ast.to_string f)))
    [
      {|P=? [ true U<=100 "down" ]|};
      {|S>=0.9 [ !"down" & "x" ]|};
      {|R{"cost"}=? [ C<=10 ]|};
      {|P<0.5 [ G<=8 !"up" ]|};
      {|P=? [ X ("a" | "b") ]|};
    ]

(* ------------------------------------------------------------------ *)
(* Checker, on the 2-state machine with closed forms *)

let two_state a b = Chain.of_transitions ~states:2 [ (0, 1, a); (1, 0, b) ]

let machine_model =
  let m = two_state 0.1 2. in
  Checker.of_chain
    ~labels:[ ("down", fun s -> s = 1); ("up", fun s -> s = 0) ]
    ~rewards:[ (Some "cost", [| 0.; 3. |]); (None, [| 1.; 1. |]) ]
    m

let value q =
  match Checker.check_string machine_model q with
  | Checker.Value v -> v
  | Checker.Satisfied _ -> Alcotest.fail "expected a value"

let satisfied q =
  match Checker.check_string machine_model q with
  | Checker.Satisfied b -> b
  | Checker.Value _ -> Alcotest.fail "expected a boolean"

let test_check_bounded_until () =
  check_close ~eps:1e-10 "hit down by t" (1. -. Float.exp (-0.1 *. 7.))
    (value {|P=? [ true U<=7 "down" ]|})

let test_check_steady () =
  check_close ~eps:1e-9 "availability" (2. /. 2.1) (value {|S=? [ "up" ]|})

let test_check_rewards () =
  check_close ~eps:1e-9 "steady cost" (3. *. (0.1 /. 2.1)) (value {|R{"cost"}=? [ S ]|});
  check_close ~eps:1e-9 "constant reward" 5. (value {|R=? [ C<=5 ]|});
  let p1 t =
    (0.1 /. 2.1) *. (1. -. Float.exp (-2.1 *. t))
  in
  check_close ~eps:1e-9 "instantaneous" (3. *. p1 4.) (value {|R{"cost"}=? [ I=4 ]|})

let test_check_interval_until () =
  (* 0 -l1-> 1 -l2-> 2 with psi = state 1 visited during [a,b] *)
  let l1 = 0.7 and l2 = 1.3 in
  let chain = Chain.of_transitions ~states:3 [ (0, 1, l1); (1, 2, l2) ] in
  let model = Checker.of_chain ~labels:[ ("mid", fun s -> s = 1) ] chain in
  let a = 0.9 and b = 2.1 in
  let v =
    match Checker.check_string model {|P=? [ true U[0.9,2.1] "mid" ]|} with
    | Checker.Value v -> v
    | Checker.Satisfied _ -> Alcotest.fail "expected value"
  in
  let p0_at_a = Float.exp (-.l1 *. a) in
  let p1_at_a = l1 /. (l2 -. l1) *. (Float.exp (-.l1 *. a) -. Float.exp (-.l2 *. a)) in
  check_close ~eps:1e-10 "interval until"
    (p1_at_a +. (p0_at_a *. (1. -. Float.exp (-.l1 *. (b -. a)))))
    v

let test_check_next () =
  (* from up, the only jump goes down *)
  check_close "next" 1. (value {|P=? [ X "down" ]|});
  (* timed next: the jump must happen within t *)
  check_close ~eps:1e-12 "timed next" (1. -. Float.exp (-0.1 *. 3.))
    (value {|P=? [ X<=3 "down" ]|});
  check_close ~eps:1e-12 "interval next"
    (Float.exp (-0.1 *. 1.) -. Float.exp (-0.1 *. 4.))
    (value {|P=? [ X[1,4] "down" ]|})

let test_check_globally () =
  (* stay up through [0, t]: e^-0.1 t *)
  check_close ~eps:1e-9 "globally" (Float.exp (-0.1 *. 3.)) (value {|P=? [ G<=3 "up" ]|})

let test_check_boolean_forms () =
  Alcotest.(check bool) "bounded P as formula" true
    (satisfied {|P>=0.9 [ G<=0.5 "up" ]|});
  Alcotest.(check bool) "negation" false (satisfied {|!"up"|});
  Alcotest.(check bool) "S bound" true (satisfied {|S>=0.9 [ "up" ]|})

let test_check_nested_p () =
  (* states from which a down-state is reachable in one jump with high
     probability, used inside another formula *)
  Alcotest.(check bool) "nested" true
    (satisfied {|P>=0.99 [ true U<=1000 P>=0.99 [ X "up" ] ]|})

let test_check_unknown_label () =
  match Checker.check_string machine_model {|S=? [ "nonexistent" ]|} with
  | exception Checker.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

let test_check_nested_query_rejected () =
  match Checker.check_string machine_model {|P>=0.5 [ X P=? [ X "up" ] ]|} with
  | exception Checker.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected rejection of nested =?"

let test_value_helper () =
  check_close ~eps:1e-9 "value" (2. /. 2.1) (Checker.value machine_model {|S=? [ "up" ]|});
  match Checker.value machine_model {|"up"|} with
  | exception Checker.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported for boolean"

(* of_built integration: labels, variables and rewards resolve *)
let test_of_built () =
  let src =
    {|
ctmc
module m
  working : bool init true;
  [] working -> 0.5 : (working' = false);
  [] !working -> 5 : (working' = true);
endmodule
label "dead" = !working;
rewards "penalty"
  !working : 7;
endrewards
|}
  in
  let built = Prism.Builder.build (Prism.Parser.parse_model src) in
  let model = Checker.of_built built in
  let v q =
    match Checker.check_string model q with
    | Checker.Value v -> v
    | Checker.Satisfied _ -> Alcotest.fail "expected value"
  in
  check_close ~eps:1e-9 "label" (0.5 /. 5.5) (v {|S=? [ "dead" ]|});
  check_close ~eps:1e-9 "atomic variable" (0.5 /. 5.5) (v {|S=? [ (working = false) ]|});
  check_close ~eps:1e-9 "reward" (7. *. (0.5 /. 5.5)) (v {|R{"penalty"}=? [ S ]|})

(* reducible chain: S with bounds evaluated per state *)
let test_steady_bound_reducible () =
  let m = Chain.of_transitions ~states:3 [ (0, 1, 1.); (0, 2, 3.) ] in
  let model = Checker.of_chain ~labels:[ ("goal", fun s -> s = 2) ] m in
  (* from state 0 the long-run probability of "goal" is 0.75 *)
  match Checker.check_string model {|S>=0.7 [ "goal" ]|} with
  | Checker.Satisfied b -> Alcotest.(check bool) "bound holds from init" true b
  | Checker.Value _ -> Alcotest.fail "expected boolean"

let () =
  Alcotest.run "csl"
    [
      ( "parser",
        [
          Alcotest.test_case "probability query" `Quick test_parse_probability_query;
          Alcotest.test_case "bounds" `Quick test_parse_bounds;
          Alcotest.test_case "steady state" `Quick test_parse_steady;
          Alcotest.test_case "reward forms" `Quick test_parse_rewards;
          Alcotest.test_case "boolean structure" `Quick test_parse_boolean_structure;
          Alcotest.test_case "atomic expressions" `Quick test_parse_atomic_expression;
          Alcotest.test_case "globally / until" `Quick test_parse_globally_until;
          Alcotest.test_case "time intervals" `Quick test_parse_interval;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error positions" `Quick test_parse_error_positions;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            ~rand:(Random.State.make [| 27 |])
            prop_csl_parse_never_raises;
          Alcotest.test_case "to_string roundtrip" `Quick test_to_string_roundtrip;
        ] );
      ( "checker",
        [
          Alcotest.test_case "bounded until" `Quick test_check_bounded_until;
          Alcotest.test_case "steady state" `Quick test_check_steady;
          Alcotest.test_case "rewards" `Quick test_check_rewards;
          Alcotest.test_case "interval until" `Quick test_check_interval_until;
          Alcotest.test_case "next" `Quick test_check_next;
          Alcotest.test_case "globally" `Quick test_check_globally;
          Alcotest.test_case "boolean forms" `Quick test_check_boolean_forms;
          Alcotest.test_case "nested P bound" `Quick test_check_nested_p;
          Alcotest.test_case "unknown label" `Quick test_check_unknown_label;
          Alcotest.test_case "nested query rejected" `Quick
            test_check_nested_query_rejected;
          Alcotest.test_case "value helper" `Quick test_value_helper;
          Alcotest.test_case "of_built integration" `Quick test_of_built;
          Alcotest.test_case "reducible steady bound" `Quick test_steady_bound_reducible;
        ] );
    ]
