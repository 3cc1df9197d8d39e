(* Tests for fault trees and quantitative service trees: gate semantics,
   duality, cut sets, the string syntax, and the service-level enumeration
   the paper's survivability measure builds on. *)

let ft = Alcotest.testable (Fmt.of_to_string Fault_tree.to_string) ( = )

let check_float = Alcotest.(check (float 1e-9))

let b = Fault_tree.basic

(* the paper's Line 2 "total failure" tree *)
let line2_down =
  Fault_tree.or_
    [
      Fault_tree.and_ [ b "st1"; b "st2"; b "st3" ];
      Fault_tree.and_ [ b "sf1"; b "sf2" ];
      b "res";
      Fault_tree.kofn 2 [ b "pump1"; b "pump2"; b "pump3" ];
    ]

let truth_of failed name = List.mem name failed

(* ------------------------------------------------------------------ *)

let test_constructors_validate () =
  Alcotest.check_raises "empty and" (Invalid_argument "Fault_tree.and_: empty gate")
    (fun () -> ignore (Fault_tree.and_ []));
  Alcotest.check_raises "kofn out of range"
    (Invalid_argument "Fault_tree.kofn: k = 3 out of [1, 2]") (fun () ->
      ignore (Fault_tree.kofn 3 [ b "a"; b "b" ]))

let test_eval_gates () =
  let t = line2_down in
  Alcotest.(check bool) "all up" false (Fault_tree.eval t (truth_of []));
  Alcotest.(check bool) "res down" true (Fault_tree.eval t (truth_of [ "res" ]));
  Alcotest.(check bool) "one softener" false (Fault_tree.eval t (truth_of [ "st1" ]));
  Alcotest.(check bool) "all softeners" true
    (Fault_tree.eval t (truth_of [ "st1"; "st2"; "st3" ]));
  Alcotest.(check bool) "one pump ok" false (Fault_tree.eval t (truth_of [ "pump1" ]));
  Alcotest.(check bool) "two pumps down" true
    (Fault_tree.eval t (truth_of [ "pump1"; "pump3" ]))

let test_basics_order () =
  Alcotest.(check (list string)) "first occurrence order"
    [ "st1"; "st2"; "st3"; "sf1"; "sf2"; "res"; "pump1"; "pump2"; "pump3" ]
    (Fault_tree.basics line2_down)

let test_dual_gates () =
  let t = Fault_tree.and_ [ b "a"; Fault_tree.or_ [ b "b"; b "c" ] ] in
  let expected = Fault_tree.or_ [ b "a"; Fault_tree.and_ [ b "b"; b "c" ] ] in
  Alcotest.check ft "and/or swap" expected (Fault_tree.dual t);
  let v = Fault_tree.kofn 2 [ b "a"; b "b"; b "c" ] in
  Alcotest.check ft "kofn dual" (Fault_tree.kofn 2 [ b "a"; b "b"; b "c" ])
    (Fault_tree.dual v);
  let v2 = Fault_tree.kofn 1 [ b "a"; b "b"; b "c" ] in
  Alcotest.check ft "kofn 1-of-3 dual is 3-of-3"
    (Fault_tree.kofn 3 [ b "a"; b "b"; b "c" ])
    (Fault_tree.dual v2)

let test_dual_involution () =
  Alcotest.check ft "dual twice is identity" line2_down
    (Fault_tree.dual (Fault_tree.dual line2_down))

(* eval (dual t) f = not (eval t (not . f)) — the duality the service tree
   relies on. *)
let prop_duality =
  let tree_gen =
    QCheck.Gen.(
      sized_size (int_range 1 4) (fix (fun self n ->
          if n = 0 then map (fun i -> Fault_tree.basic (Printf.sprintf "c%d" i)) (int_range 0 5)
          else
            let sub = self (n - 1) in
            oneof
              [
                map (fun i -> Fault_tree.basic (Printf.sprintf "c%d" i)) (int_range 0 5);
                map (fun l -> Fault_tree.and_ l) (list_size (int_range 1 3) sub);
                map (fun l -> Fault_tree.or_ l) (list_size (int_range 1 3) sub);
                (let* l = list_size (int_range 1 3) sub in
                 let* k = int_range 1 (List.length l) in
                 return (Fault_tree.kofn k l));
              ])))
  in
  QCheck.Test.make ~count:300 ~name:"dual satisfies de morgan duality"
    (QCheck.make (QCheck.Gen.pair tree_gen (QCheck.Gen.int_bound 63)))
    (fun (tree, mask) ->
      let f name =
        (* deterministic pseudo-assignment from the mask *)
        let i = int_of_string (String.sub name 1 (String.length name - 1)) in
        mask land (1 lsl i) <> 0
      in
      Fault_tree.eval (Fault_tree.dual tree) f
      = not (Fault_tree.eval tree (fun name -> not (f name))))

let test_quantitative_gates () =
  let value map name = List.assoc name map in
  let t = Fault_tree.and_ [ b "a"; b "b" ] in
  check_float "ANDq = min" 0.3
    (Fault_tree.eval_quantitative t (value [ ("a", 0.3); ("b", 0.8) ]));
  let t = Fault_tree.or_ [ b "a"; b "b" ] in
  check_float "ORq = avg" 0.55
    (Fault_tree.eval_quantitative t (value [ ("a", 0.3); ("b", 0.8) ]));
  let t = Fault_tree.kofn 2 [ b "a"; b "b"; b "c" ] in
  check_float "KOFNq = min(1, sum/k)" 1.
    (Fault_tree.eval_quantitative t (value [ ("a", 1.); ("b", 1.); ("c", 0.) ]));
  check_float "KOFNq below capacity" 0.5
    (Fault_tree.eval_quantitative t (value [ ("a", 1.); ("b", 0.); ("c", 0.) ]))

let test_service_levels_line2 () =
  (* the paper: Line 2 has service levels {0, 1/3, 1/2, 2/3, 1} *)
  let service = Fault_tree.dual line2_down in
  let levels = Fault_tree.service_levels service in
  Alcotest.(check int) "5 levels" 5 (List.length levels);
  List.iter2
    (fun expected actual -> check_float "level" expected actual)
    [ 0.; 1. /. 3.; 0.5; 2. /. 3.; 1. ]
    levels

let test_service_levels_line1 () =
  let line1_down =
    Fault_tree.or_
      [
        Fault_tree.and_ [ b "st1"; b "st2"; b "st3" ];
        Fault_tree.and_ [ b "sf1"; b "sf2"; b "sf3" ];
        b "res";
        Fault_tree.kofn 2 [ b "pump1"; b "pump2"; b "pump3"; b "pump4" ];
      ]
  in
  let levels = Fault_tree.service_levels (Fault_tree.dual line1_down) in
  (* the paper: spare pumps create no extra service intervals -> {0,1/3,2/3,1} *)
  Alcotest.(check int) "4 levels" 4 (List.length levels);
  List.iter2
    (fun expected actual -> check_float "level" expected actual)
    [ 0.; 1. /. 3.; 2. /. 3.; 1. ]
    levels

let test_minimal_cut_sets () =
  let t =
    Fault_tree.or_
      [ Fault_tree.and_ [ b "a"; b "b" ]; b "c"; Fault_tree.and_ [ b "a"; b "b"; b "d" ] ]
  in
  Alcotest.(check (list (list string)))
    "absorption removes {a,b,d}"
    [ [ "a"; "b" ]; [ "c" ] ]
    (Fault_tree.minimal_cut_sets t)

let test_cut_sets_kofn () =
  let t = Fault_tree.kofn 2 [ b "x"; b "y"; b "z" ] in
  Alcotest.(check (list (list string)))
    "2-of-3 cut sets"
    [ [ "x"; "y" ]; [ "x"; "z" ]; [ "y"; "z" ] ]
    (Fault_tree.minimal_cut_sets t)

let prop_cut_sets_are_sufficient =
  QCheck.Test.make ~count:100 ~name:"every minimal cut set triggers the tree"
    (QCheck.make (QCheck.Gen.return ()))
    (fun () ->
      let t = line2_down in
      List.for_all
        (fun cut -> Fault_tree.eval t (fun name -> List.mem name cut))
        (Fault_tree.minimal_cut_sets t))

let test_minimal_path_sets () =
  (* down = (a and b) or c; path sets: {a, c} and {b, c} *)
  let t = Fault_tree.or_ [ Fault_tree.and_ [ b "a"; b "b" ]; b "c" ] in
  Alcotest.(check (list (list string)))
    "path sets"
    [ [ "a"; "c" ]; [ "b"; "c" ] ]
    (Fault_tree.minimal_path_sets t);
  (* every path set's health forces the tree false *)
  List.iter
    (fun path ->
      Alcotest.(check bool) "keeps system up" false
        (Fault_tree.eval t (fun name -> not (List.mem name path))))
    (Fault_tree.minimal_path_sets t)

let test_string_roundtrip () =
  let s = Fault_tree.to_string line2_down in
  Alcotest.check ft "roundtrip" line2_down (Fault_tree.of_string s)

let test_of_string_examples () =
  Alcotest.check ft "plain or" (Fault_tree.or_ [ b "a"; b "b" ])
    (Fault_tree.of_string "or(a, b)");
  Alcotest.check ft "kofn" (Fault_tree.kofn 2 [ b "a"; b "b"; b "c" ])
    (Fault_tree.of_string "kofn(2, a, b, c)");
  Alcotest.check ft "whitespace"
    (Fault_tree.and_ [ b "x"; b "y" ])
    (Fault_tree.of_string "  and ( x ,  y )  ")

let test_of_string_errors () =
  List.iter
    (fun input ->
      match Fault_tree.of_string input with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "expected failure on %S" input))
    [ ""; "and()"; "or(a,"; "kofn(x, a)"; "a b" ]

let test_monotonicity () =
  (* failing more components can only decrease quantitative service *)
  let service = Fault_tree.dual line2_down in
  let basics = Fault_tree.basics service in
  let value failed name = if List.mem name failed then 0. else 1. in
  let all_subsets_of_two =
    List.concat_map (fun a -> List.map (fun c -> (a, c)) basics) basics
  in
  List.iter
    (fun (a, c) ->
      let s1 = Fault_tree.eval_quantitative service (value [ a ]) in
      let s2 = Fault_tree.eval_quantitative service (value [ a; c ]) in
      Alcotest.(check bool) "monotone" true (s2 <= s1 +. 1e-12))
    all_subsets_of_two

(* The original 2^n enumeration, kept as the oracle for
   [Fault_tree.service_levels]: every assignment evaluated through
   [eval_quantitative], each level keyed by its "%.12g" rendering, the
   last assignment of a key winning. *)
let reference_service_levels tree =
  let names = Array.of_list (Fault_tree.basics tree) in
  let n = Array.length names in
  let index = Hashtbl.create n in
  Array.iteri (fun i name -> Hashtbl.replace index name i) names;
  let levels = Hashtbl.create 16 in
  for mask = 0 to (1 lsl n) - 1 do
    let value name = if mask land (1 lsl Hashtbl.find index name) <> 0 then 1. else 0. in
    let level = Fault_tree.eval_quantitative tree value in
    Hashtbl.replace levels (Printf.sprintf "%.12g" level) level
  done;
  List.sort compare (Hashtbl.fold (fun _ v acc -> v :: acc) levels [])

let bits = List.map Int64.bits_of_float

(* Nested AND/OR/K-of-N trees over at most 14 basic events, drawn with
   repetition so that one event can feed several gates. *)
let service_tree_gen =
  QCheck.Gen.(
    let* names = int_range 1 14 in
    let leaf = map (fun i -> b (Printf.sprintf "e%d" i)) (int_range 0 (names - 1)) in
    sized_size (int_range 1 4)
      (fix (fun self n ->
           if n = 0 then leaf
           else
             let sub = self (n - 1) in
             frequency
               [
                 (1, leaf);
                 (2, map Fault_tree.and_ (list_size (int_range 1 4) sub));
                 (3, map Fault_tree.or_ (list_size (int_range 1 5) sub));
                 ( 3,
                   let* l = list_size (int_range 1 5) sub in
                   let* k = int_range 1 (List.length l) in
                   return (Fault_tree.kofn k l) );
               ])))

let prop_service_levels_oracle =
  QCheck.Test.make ~count:300 ~name:"service levels = 2^n enumeration, bit for bit"
    (QCheck.make ~print:Fault_tree.to_string service_tree_gen)
    (fun tree ->
      bits (Fault_tree.service_levels tree) = bits (reference_service_levels tree))

(* A tree with two levels that print alike under "%.12g" but differ in
   their last bits; the enumeration keeps the one its last assignment
   gave, and keeping the first would change the list. *)
let test_service_levels_last_wins () =
  let tree =
    Fault_tree.of_string
      "or(e3, e1, kofn(3, and(e3, e2, e3), and(e2, e0, e3, e2), or(e1)), e0)"
  in
  Alcotest.(check (list int64)) "same list as the enumeration"
    (bits (reference_service_levels tree))
    (bits (Fault_tree.service_levels tree))

(* The levels of every shipped model, bit for bit. *)
let golden_levels =
  let lines1 = [ 0x0p+0; 0x1.5555555555555p-2; 0x1.5555555555555p-1; 0x1p+0 ] in
  let lines2 = [ 0x0p+0; 0x1.5555555555555p-2; 0x1p-1; 0x1.5555555555555p-1; 0x1p+0 ] in
  [
    ("line1_ded.xml", lines1);
    ("line1_fff-1.xml", lines1);
    ("line1_fff-2.xml", lines1);
    ("line1_frf-1.xml", lines1);
    ("line1_frf-2.xml", lines1);
    ("line2_ded.xml", lines2);
    ("line2_fff-1.xml", lines2);
    ("line2_fff-2.xml", lines2);
    ("line2_frf-1.xml", lines2);
    ("line2_frf-2.xml", lines2);
    ("pipeline_modes.xml", [ 0x0p+0; 0x1p-1; 0x1p+0 ]);
    ("substation.xml", lines2);
  ]

let test_golden_levels () =
  List.iter
    (fun (file, levels) ->
      let model, _ = Core.Xml_io.load ("../models/" ^ file) in
      let tree = Core.Model.service_tree model in
      Alcotest.(check (list int64)) file (bits levels)
        (bits (Core.Model.service_levels model));
      Alcotest.(check (list int64)) (file ^ " oracle") (bits levels)
        (bits (reference_service_levels tree)))
    golden_levels

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "fault_tree"
    [
      ( "boolean",
        [
          Alcotest.test_case "constructor validation" `Quick test_constructors_validate;
          Alcotest.test_case "gate evaluation" `Quick test_eval_gates;
          Alcotest.test_case "basics order" `Quick test_basics_order;
        ] );
      ( "duality",
        [
          Alcotest.test_case "gate swap" `Quick test_dual_gates;
          Alcotest.test_case "involution" `Quick test_dual_involution;
        ]
        @ qsuite [ prop_duality ] );
      ( "quantitative",
        [
          Alcotest.test_case "gate formulas" `Quick test_quantitative_gates;
          Alcotest.test_case "line 2 service levels" `Quick test_service_levels_line2;
          Alcotest.test_case "line 1 service levels (spares)" `Quick
            test_service_levels_line1;
          Alcotest.test_case "monotone in failures" `Quick test_monotonicity;
          Alcotest.test_case "last assignment wins" `Quick test_service_levels_last_wins;
          Alcotest.test_case "shipped models' levels" `Quick test_golden_levels;
        ]
        @ qsuite [ prop_service_levels_oracle ] );
      ( "cut-sets",
        [
          Alcotest.test_case "absorption" `Quick test_minimal_cut_sets;
          Alcotest.test_case "kofn expansion" `Quick test_cut_sets_kofn;
          Alcotest.test_case "path sets" `Quick test_minimal_path_sets;
        ]
        @ qsuite [ prop_cut_sets_are_sufficient ] );
      ( "syntax",
        [
          Alcotest.test_case "roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "examples" `Quick test_of_string_examples;
          Alcotest.test_case "errors" `Quick test_of_string_errors;
        ] );
    ]
