(* The paper's case study end to end: build both process lines of the
   water-treatment facility, compare the repair strategies on availability,
   and study recovery from Disaster 2 on Line 2.

   Run with: dune exec examples/water_treatment.exe *)

open Watertreatment

let () =
  Format.printf "=== Water-treatment facility (DSN 2010 case study) ===@.@.";

  (* Availability per strategy (the paper's Table 2). *)
  Format.printf "Steady-state availability (fully operational):@.";
  Format.printf "  %-8s %-10s %-10s %-10s@." "strategy" "line 1" "line 2" "combined";
  List.iter
    (fun cfg ->
      let a1 = Core.Measures.availability (Facility.analyze Facility.Line1 cfg) in
      let a2 = Core.Measures.availability (Facility.analyze Facility.Line2 cfg) in
      Format.printf "  %-8s %.7f  %.7f  %.7f@."
        (Facility.config_name cfg) a1 a2
        (Core.Measures.combined_availability [ a1; a2 ]))
    Facility.paper_configs;

  (* Service intervals (Section 5: X1..X3 for Line 1, X1..X4 for Line 2). *)
  Format.printf "@.Service intervals:@.";
  List.iter
    (fun line ->
      Format.printf "  %s: " (Facility.line_name line);
      List.iteri
        (fun i (low, high) ->
          if i > 0 then Format.printf ", ";
          if low = high then Format.printf "X%d = {%.2f}" (i + 1) low
          else Format.printf "X%d = [%.2f, %.2f)" (i + 1) low high)
        (Facility.service_intervals line);
      Format.printf "@.")
    [ Facility.Line1; Facility.Line2 ];

  (* Disaster 2 on Line 2: two pumps, one softener, one sand filter and the
     reservoir are down. How fast does each strategy restore service? *)
  Format.printf "@.Recovery from Disaster 2 (Line 2), service >= 1/3:@.";
  Format.printf "  %-8s %-12s %-12s %-12s@." "strategy" "P(<= 10h)" "P(<= 50h)" "P(<= 100h)";
  let strategies =
    [ Facility.ded; Facility.fff 1; Facility.fff 2; Facility.frf 1; Facility.frf 2 ]
  in
  let after_disaster =
    List.map
      (fun cfg ->
        (cfg, Facility.analyze_after_disaster Facility.Line2 cfg ~failed:Facility.disaster2))
      strategies
  in
  List.iter
    (fun (cfg, m) ->
      let p t = Core.Measures.survivability m ~service_level:(1. /. 3.) ~time:t in
      Format.printf "  %-8s %.7f    %.7f    %.7f@." (Facility.config_name cfg)
        (p 10.) (p 50.) (p 100.))
    after_disaster;

  (* ... and what does the recovery cost? *)
  Format.printf "@.Accumulated repair cost 50 h after Disaster 2 (Line 2):@.";
  List.iter
    (fun (cfg, m) ->
      Format.printf "  %-8s %8.2f@." (Facility.config_name cfg)
        (Core.Measures.accumulated_cost m ~time:50.))
    after_disaster;

  Format.printf
    "@.Conclusion (matching the paper): FRF with 2 crews recovers almost as@.\
     fast as dedicated repair at a fraction of the cost; FFF-1 is the worst@.\
     choice after this disaster because it repairs the reservoir last.@."
