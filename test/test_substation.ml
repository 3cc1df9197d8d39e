(* Tests for the substation case study — the model that combines every
   framework extension (warm/cold spares, failure modes, Erlang repairs,
   priority scheduling). *)

module Measures = Core.Measures
module Semantics = Core.Semantics
module Chain = Ctmc.Chain

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let decoded_states built =
  Array.init (Chain.states built.Semantics.chain) (Semantics.state built)

let analyzed = lazy (Measures.analyze Substation.model)

let test_state_space () =
  let built = Measures.built (Lazy.force analyzed) in
  let n = Chain.states built.Semantics.chain in
  (* 10 components with spares/modes/stages: a few thousand states, far less
     than the 3^10-ish naive bound thanks to dormancy and priority order *)
  Alcotest.(check bool) "non-trivial" true (n > 500);
  Alcotest.(check bool) "bounded" true (n < 50_000)

let test_availability_band () =
  let m = Lazy.force analyzed in
  let a = Measures.availability m in
  Alcotest.(check bool)
    (Printf.sprintf "plausible availability (%.4f)" a)
    true
    (a > 0.9 && a < 0.999);
  Alcotest.(check bool) "any-service dominates" true
    (Measures.any_service_availability m >= a)

let test_warm_spare_asymmetry () =
  (* tr2 ages at 30% while dormant, so its long-run unavailability must be
     clearly below tr1's *)
  let built = Measures.built (Lazy.force analyzed) in
  let chain = built.Semantics.chain in
  let pi = Ctmc.Steady_state.solve chain in
  let unavail name =
    let pred = Semantics.literal_pred built name in
    let acc = ref 0. in
    Array.iteri (fun s mass -> if pred s then acc := !acc +. mass) pi;
    !acc
  in
  Alcotest.(check bool) "tr2 healthier than tr1" true (unavail "tr2" < 0.6 *. unavail "tr1");
  (* the cold battery almost never fails: it is dormant unless ss is down *)
  Alcotest.(check bool) "battery barely fails" true (unavail "bat" < 0.05 *. unavail "f1")

let test_relay_modes_in_tree () =
  (* both relay modes are fault-tree literals; each alone must bring the
     system down *)
  let built = Measures.built (Lazy.force analyzed) in
  let stuck = Semantics.literal_pred built "relay:failed" in
  let spurious = Semantics.literal_pred built "relay:spurious" in
  Array.iteri
    (fun s _ ->
      if stuck s || spurious s then
        Alcotest.(check bool) "relay failure implies down" true
          (Semantics.down_pred built s))
    (decoded_states built);
  (* and the two predicates are disjoint *)
  Array.iteri
    (fun s _ ->
      Alcotest.(check bool) "modes disjoint" false (stuck s && spurious s))
    (decoded_states built)

let test_storm_recovery_monotone () =
  let good =
    Measures.analyze
      ~initial:(Semantics.disaster_state Substation.model ~failed:Substation.storm)
      Substation.model
  in
  let p t = Measures.survivability good ~service_level:1. ~time:t in
  Alcotest.(check bool) "monotone" true (p 24. <= p 72. && p 72. <= p 240.);
  (* the transformer replacement (Erlang-2, 168 h mean) gates full recovery:
     within a day it is very unlikely *)
  Alcotest.(check bool) "transformer gates recovery" true (p 24. < 0.05);
  Alcotest.(check bool) "eventually likely" true (p 1000. > 0.9)

(* the storm view of the all-up chain (what {!Substation.summary} reports)
   against a build from the storm state: equal state counts, and
   survivability at every positive service level and both cost curves
   within 1e-12 relative *)
let test_storm_rooted_matches_rebuild () =
  let storm = Semantics.disaster_state Substation.model ~failed:Substation.storm in
  let view = Measures.rooted (Lazy.force analyzed) [ (1., storm) ] in
  let rebuilt = Measures.analyze ~initial:storm Substation.model in
  let states m = Chain.states (Measures.built m).Semantics.chain in
  Alcotest.(check int) "states" (states rebuilt) (states view);
  let times = [ 0.; 4.; 24.; 72.; 240. ] in
  let agree what a b =
    List.iter2
      (fun (t, x) (_, y) ->
        if Float.abs (x -. y) > 1e-12 *. Float.max (Float.abs x) (Float.abs y) then
          Alcotest.failf "%s t=%g: rooted %.17g, rebuilt %.17g" what t x y)
      a b
  in
  List.iter
    (fun level ->
      if level > 0. then
        agree
          (Printf.sprintf "survivability %.2f" level)
          (Measures.survivability_curve view ~service_level:level ~times)
          (Measures.survivability_curve rebuilt ~service_level:level ~times))
    (Core.Model.service_levels Substation.model);
  let vi, va = Measures.cost_curves view ~times in
  let ri, ra = Measures.cost_curves rebuilt ~times in
  agree "instantaneous cost" vi ri;
  agree "accumulated cost" va ra

let test_strategy_ordering () =
  let avail strategy crews =
    Measures.availability (Measures.analyze (Substation.model_with ~strategy ~crews ()))
  in
  let ded = avail Core.Repair.Dedicated 1 in
  let prio = avail (Core.Repair.Priority Substation.priority_order) 1 in
  let frf2 = avail Core.Repair.Frf 2 in
  Alcotest.(check bool) "dedicated best" true (ded >= prio && ded >= frf2);
  Alcotest.(check bool) "second crew helps" true (frf2 > prio)

let test_blackout_witness () =
  match Measures.most_likely_loss_scenario (Lazy.force analyzed) with
  | Some (events, p) ->
      (* a single relay failure (either mode) is the dominant blackout path *)
      Alcotest.(check int) "single event" 1 (List.length events);
      Alcotest.(check string) "relay" "relay fails" (List.hd events);
      Alcotest.(check bool) "plausible probability" true (p > 0.01 && p < 0.5)
  | None -> Alcotest.fail "expected a scenario"

let test_importance_ranking () =
  let indices =
    let m = Lazy.force analyzed in
    Core.Importance.analyze ~analysis:(Measures.analysis m) (Measures.built m)
  in
  match indices with
  | first :: second :: _ ->
      (* the two relay modes are the top Birnbaum entries: single points of
         failure *)
      Alcotest.(check bool) "relay modes on top" true
        (List.mem first.Core.Importance.component [ "relay:failed"; "relay:spurious" ]
        && List.mem second.Core.Importance.component [ "relay:failed"; "relay:spurious" ])
  | _ -> Alcotest.fail "expected indices"

let test_prism_translation_rejected () =
  (* warm/cold spares and failure modes are direct-semantics-only *)
  match Core.To_prism.translate Substation.model with
  | exception Core.To_prism.Untranslatable _ -> ()
  | _ -> Alcotest.fail "expected Untranslatable"

let test_xml_roundtrip () =
  let model', _ = Core.Xml_io.of_xml (Core.Xml_io.to_xml Substation.model) in
  let m = Measures.analyze model' in
  check_close ~eps:1e-12 "same availability"
    (Measures.availability (Lazy.force analyzed))
    (Measures.availability m)

let () =
  Alcotest.run "substation"
    [
      ( "model",
        [
          Alcotest.test_case "state space" `Quick test_state_space;
          Alcotest.test_case "availability band" `Quick test_availability_band;
          Alcotest.test_case "warm/cold spare asymmetry" `Quick
            test_warm_spare_asymmetry;
          Alcotest.test_case "relay modes" `Quick test_relay_modes_in_tree;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "storm recovery" `Quick test_storm_recovery_monotone;
          Alcotest.test_case "storm view = rebuild" `Quick
            test_storm_rooted_matches_rebuild;
          Alcotest.test_case "strategy ordering" `Slow test_strategy_ordering;
          Alcotest.test_case "blackout witness" `Quick test_blackout_witness;
          Alcotest.test_case "importance ranking" `Quick test_importance_ranking;
          Alcotest.test_case "prism rejected" `Quick test_prism_translation_rejected;
          Alcotest.test_case "xml roundtrip" `Quick test_xml_roundtrip;
        ] );
    ]
