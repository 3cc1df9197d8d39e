(* Regression tests against the paper's published numbers and qualitative
   claims. The dedicated-repair rows of Table 2 are reproduced exactly (they
   validate the reverse-engineered MTTF/MTTR assignment); queue-based
   strategies match the paper's state counts for one crew and its qualitative
   ordering everywhere. *)

open Watertreatment
module Measures = Core.Measures
module Semantics = Core.Semantics
module Chain = Ctmc.Chain

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let cached : (string, Measures.t) Hashtbl.t = Hashtbl.create 16

(* one build per (line, config); a disaster analysis roots the cached
   all-up one at the disaster state *)
let rec analyze ?disaster line config =
  let key =
    Printf.sprintf "%s/%s/%s" (Facility.line_name line) (Facility.config_name config)
      (match disaster with None -> "-" | Some failed -> String.concat "," failed)
  in
  match Hashtbl.find_opt cached key with
  | Some m -> m
  | None ->
      let m =
        match disaster with
        | None -> Facility.analyze line config
        | Some failed -> Facility.after_disaster (analyze line config) ~failed
      in
      Hashtbl.replace cached key m;
      m

let chain_of m = (Measures.built m).Semantics.chain

(* ------------------------------------------------------------------ *)
(* Model structure *)

let test_component_rates () =
  check_close "pump mttf" 500. (Facility.mttf "pump1");
  check_close "pump mttr" 1. (Facility.mttr "pump1");
  check_close "st" 2000. (Facility.mttf "st2");
  check_close "sf" 100. (Facility.mttr "sf1");
  check_close "res" 6000. (Facility.mttf "res")

let test_line_shapes () =
  let m1 = Facility.line_model Facility.Line1 Facility.ded in
  Alcotest.(check int) "line 1 components" 11 (List.length m1.Core.Model.components);
  let m2 = Facility.line_model Facility.Line2 Facility.ded in
  Alcotest.(check int) "line 2 components" 9 (List.length m2.Core.Model.components)

let test_service_intervals () =
  (* paper: Line 1 has 3 positive intervals, Line 2 has 4 *)
  Alcotest.(check int) "line 1 intervals" 3
    (List.length (Facility.service_intervals Facility.Line1));
  Alcotest.(check int) "line 2 intervals" 4
    (List.length (Facility.service_intervals Facility.Line2));
  let lows = List.map fst (Facility.service_intervals Facility.Line2) in
  List.iter2 (fun e a -> check_close ~eps:1e-9 "interval low" e a)
    [ 1. /. 3.; 0.5; 2. /. 3.; 1. ] lows

(* ------------------------------------------------------------------ *)
(* Table 1: state spaces *)

let test_table1_dedicated_counts () =
  (* paper: 2048/22528 (Line 1), 512 (Line 2) *)
  let c1 = chain_of (analyze Facility.Line1 Facility.ded) in
  Alcotest.(check int) "line1 ded states" 2048 (Chain.states c1);
  Alcotest.(check int) "line1 ded transitions" 22528 (Chain.transition_count c1);
  let c2 = chain_of (analyze Facility.Line2 Facility.ded) in
  Alcotest.(check int) "line2 ded states" 512 (Chain.states c2)

let test_table1_single_crew_counts_match_paper () =
  (* paper Table 1: FRF-1/FFF-1 have 111809 (Line 1) and 8129 (Line 2)
     states; our canonical queue encoding reproduces these exactly *)
  Alcotest.(check int) "line1 frf-1" 111809
    (Chain.states (chain_of (analyze Facility.Line1 (Facility.frf 1))));
  Alcotest.(check int) "line2 frf-1" 8129
    (Chain.states (chain_of (analyze Facility.Line2 (Facility.frf 1))));
  Alcotest.(check int) "line2 fff-1" 8129
    (Chain.states (chain_of (analyze Facility.Line2 (Facility.fff 1))))

let test_table1_frf_fff_same_size () =
  (* paper: FRF and FFF have identical state-space sizes *)
  List.iter
    (fun crews ->
      Alcotest.(check int)
        (Printf.sprintf "frf-%d = fff-%d" crews crews)
        (Chain.states (chain_of (analyze Facility.Line2 (Facility.frf crews))))
        (Chain.states (chain_of (analyze Facility.Line2 (Facility.fff crews)))))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Table 2: availability *)

let paper_table2 =
  (* strategy, line 1, line 2, combined — from the paper *)
  [
    (Facility.ded, 0.7442018, 0.8186317, 0.9536063);
    (Facility.frf 1, 0.7225597, 0.8101931, 0.9473399);
    (Facility.frf 2, 0.7439214, 0.8186312, 0.9535554);
    (Facility.fff 1, 0.7273540, 0.8120302, 0.9487508);
    (Facility.fff 2, 0.7440022, 0.8186662, 0.9535790);
  ]

let test_table2_dedicated_exact () =
  let m1 = analyze Facility.Line1 Facility.ded in
  let m2 = analyze Facility.Line2 Facility.ded in
  check_close ~eps:5e-7 "line 1" 0.7442018 (Measures.availability m1);
  check_close ~eps:5e-7 "line 2" 0.8186317 (Measures.availability m2);
  check_close ~eps:5e-7 "combined" 0.9536063
    (Measures.combined_availability
       [ Measures.availability m1; Measures.availability m2 ])

let test_table2_queue_strategies_close () =
  (* our queue encoding differs from the authors' in unobservable details,
     so match to 1e-2 absolute and verify the ordering below *)
  List.iter
    (fun (config, a1, a2, _) ->
      check_close ~eps:0.01
        (Facility.config_name config ^ " line1")
        a1
        (Measures.availability (analyze Facility.Line1 config));
      check_close ~eps:0.01
        (Facility.config_name config ^ " line2")
        a2
        (Measures.availability (analyze Facility.Line2 config)))
    paper_table2

let test_table2_ordering () =
  (* the paper's qualitative claims: DED best; two crews close behind;
     one crew significantly lower *)
  List.iter
    (fun line ->
      let a config = Measures.availability (analyze line config) in
      let ded = a Facility.ded in
      let frf1 = a (Facility.frf 1) and frf2 = a (Facility.frf 2) in
      let fff1 = a (Facility.fff 1) and fff2 = a (Facility.fff 2) in
      Alcotest.(check bool) "ded highest" true (ded >= frf2 && ded >= fff2);
      Alcotest.(check bool) "2 crews beat 1 crew" true (frf2 > frf1 && fff2 > fff1);
      Alcotest.(check bool) "2 crews within 0.001 of ded" true
        (ded -. frf2 < 0.001 && ded -. fff2 < 0.001);
      Alcotest.(check bool) "1 crew notably lower" true (ded -. frf1 > 0.005))
    [ Facility.Line1; Facility.Line2 ]

(* ------------------------------------------------------------------ *)
(* Fig. 3: reliability *)

let test_fig3_line2_more_reliable () =
  (* paper: Line 2 is more reliable than Line 1 despite less redundancy *)
  let m1 = Measures.analyze (Facility.reliability_model Facility.Line1) in
  let m2 = Measures.analyze (Facility.reliability_model Facility.Line2) in
  List.iter
    (fun t ->
      let r1 = Measures.reliability m1 ~time:t in
      let r2 = Measures.reliability m2 ~time:t in
      Alcotest.(check bool)
        (Printf.sprintf "R2 > R1 at %g (%.4f vs %.4f)" t r2 r1)
        true (r2 > r1))
    [ 100.; 300.; 600.; 1000. ];
  (* boundary values *)
  check_close "R(0) = 1" 1. (Measures.reliability m1 ~time:0.);
  Alcotest.(check bool) "R decreases to near 0 by 1000h" true
    (Measures.reliability m1 ~time:1000. < 0.1)

let test_fig3_monotone () =
  let m = Measures.analyze (Facility.reliability_model Facility.Line2) in
  let curve = Measures.reliability_curve m ~times:[ 0.; 100.; 400.; 700.; 1000. ] in
  let rec decreasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b -. 1e-12 && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone decreasing" true (decreasing curve)

(* ------------------------------------------------------------------ *)
(* Figs. 4-5: survivability, Line 1, Disaster 1 *)

let d1 = Facility.disaster1 Facility.Line1

let test_fig45_ordering () =
  let surv config level t =
    Measures.survivability
      (analyze ~disaster:d1 Facility.Line1 config)
      ~service_level:level ~time:t
  in
  List.iter
    (fun level ->
      List.iter
        (fun t ->
          let ded = surv Facility.ded level t in
          let frf1 = surv (Facility.frf 1) level t in
          let frf2 = surv (Facility.frf 2) level t in
          (* paper: DED fastest, extra crew helps *)
          Alcotest.(check bool) "ded >= frf2" true (ded >= frf2 -. 1e-9);
          Alcotest.(check bool) "frf2 >= frf1" true (frf2 >= frf1 -. 1e-9))
        [ 0.5; 1.5; 3.; 4.5 ])
    [ 1. /. 3.; 2. /. 3. ]

let test_fig45_x2_slower_than_x1 () =
  (* recovering more service takes longer *)
  let m = analyze ~disaster:d1 Facility.Line1 (Facility.frf 1) in
  List.iter
    (fun t ->
      Alcotest.(check bool) "X2 <= X1" true
        (Measures.survivability m ~service_level:(2. /. 3.) ~time:t
         <= Measures.survivability m ~service_level:(1. /. 3.) ~time:t +. 1e-12))
    [ 1.; 2.; 4. ]

let test_d1_one_crew_strategies_equal () =
  (* paper: for Disaster 1 all 1-crew strategies coincide (only pumps are
     failed, so the initial repair order is the same). The strategies can
     differ microscopically through secondary failures during the recovery,
     so match to 1e-5 — far below plot resolution. *)
  let frf = analyze ~disaster:d1 Facility.Line1 (Facility.frf 1) in
  let fff = Facility.analyze_after_disaster Facility.Line1 (Facility.fff 1) ~failed:d1 in
  List.iter
    (fun t ->
      check_close ~eps:1e-5 (Printf.sprintf "t=%g" t)
        (Measures.survivability frf ~service_level:(1. /. 3.) ~time:t)
        (Measures.survivability fff ~service_level:(1. /. 3.) ~time:t))
    [ 0.5; 2.; 4.5 ]

(* ------------------------------------------------------------------ *)
(* Figs. 6-7: costs, Line 1, Disaster 1 *)

let test_fig6_initial_cost () =
  (* at t=0: 4 failed pumps cost 12; DED has 7 idle crews (of 11) -> 19;
     FRF-1 has 0 idle (1 crew busy) -> 12; FRF-2 -> 12 *)
  let inst config =
    Measures.instantaneous_cost (analyze ~disaster:d1 Facility.Line1 config) ~time:0.
  in
  check_close ~eps:1e-6 "ded t=0" 19. (inst Facility.ded);
  check_close ~eps:1e-6 "frf-1 t=0" 12. (inst (Facility.frf 1));
  check_close ~eps:1e-6 "frf-2 t=0" 12. (inst (Facility.frf 2))

let test_fig6_convergence_to_steady () =
  (* instantaneous cost converges to the normal-operation level; DED's
     normal level (11 idle crews) is the highest *)
  let inst config t =
    Measures.instantaneous_cost (analyze ~disaster:d1 Facility.Line1 config) ~time:t
  in
  let ded = inst Facility.ded 2000. in
  let frf1 = inst (Facility.frf 1) 2000. in
  let frf2 = inst (Facility.frf 2) 2000. in
  Alcotest.(check bool) "ded converges near 11+" true (ded > 10.5 && ded < 13.);
  Alcotest.(check bool) "frf1 lowest" true (frf1 < frf2 && frf2 < ded)

let test_fig7_accumulated_ordering () =
  (* paper: DED accumulates the highest cost; FRF-2 stays below FRF-1 *)
  let acc config =
    Measures.accumulated_cost (analyze ~disaster:d1 Facility.Line1 config) ~time:10.
  in
  let ded = acc Facility.ded and frf1 = acc (Facility.frf 1) and frf2 = acc (Facility.frf 2) in
  Alcotest.(check bool)
    (Printf.sprintf "ded (%.1f) > frf1 (%.1f) > frf2 (%.1f)" ded frf1 frf2)
    true
    (ded > frf1 && frf1 > frf2)

(* ------------------------------------------------------------------ *)
(* Figs. 8-9: survivability, Line 2, Disaster 2 *)

let d2 = Facility.disaster2

let test_fig8_fff1_slowest () =
  (* paper: FFF-1 clearly provides the slowest recovery to X1 because the
     reservoir is repaired last *)
  let surv config t =
    Measures.survivability
      (analyze ~disaster:d2 Facility.Line2 config)
      ~service_level:(1. /. 3.) ~time:t
  in
  List.iter
    (fun t ->
      let fff1 = surv (Facility.fff 1) t in
      List.iter
        (fun other ->
          Alcotest.(check bool)
            (Printf.sprintf "fff-1 slowest at %g" t)
            true
            (surv other t >= fff1 -. 1e-9))
        [ Facility.ded; Facility.fff 2; Facility.frf 1; Facility.frf 2 ])
    [ 20.; 50.; 100. ];
  (* and DED is fastest *)
  List.iter
    (fun t ->
      let ded = surv Facility.ded t in
      List.iter
        (fun other -> Alcotest.(check bool) "ded fastest" true (ded >= surv other t -. 1e-9))
        [ Facility.fff 1; Facility.fff 2; Facility.frf 1; Facility.frf 2 ])
    [ 20.; 50. ]

let test_fig9_x3_llevels () =
  (* X3 requires both sand filters, all-but-one softeners, the reservoir:
     recovery to X3 is much slower than to X1 for every strategy *)
  List.iter
    (fun config ->
      let m = analyze ~disaster:d2 Facility.Line2 config in
      Alcotest.(check bool)
        (Facility.config_name config)
        true
        (Measures.survivability m ~service_level:(2. /. 3.) ~time:50.
         < Measures.survivability m ~service_level:(1. /. 3.) ~time:50.))
    [ Facility.ded; Facility.fff 1; Facility.frf 2 ]

(* ------------------------------------------------------------------ *)
(* Figs. 10-11: costs, Line 2, Disaster 2 *)

let test_fig10_initial_cost () =
  (* 5 failed components at t=0 -> 15 + idle crews (0 for 1-2 crews) *)
  List.iter
    (fun config ->
      check_close ~eps:1e-6
        (Facility.config_name config)
        15.
        (Measures.instantaneous_cost
           (analyze ~disaster:d2 Facility.Line2 config)
           ~time:0.))
    [ Facility.fff 1; Facility.fff 2; Facility.frf 1; Facility.frf 2 ]

let test_fig11_fff1_most_expensive () =
  (* paper: FFF-1's slow instantaneous-cost convergence makes its
     accumulated cost the highest *)
  let acc config =
    Measures.accumulated_cost
      (analyze ~disaster:d2 Facility.Line2 config)
      ~time:50.
  in
  let fff1 = acc (Facility.fff 1) in
  List.iter
    (fun other ->
      Alcotest.(check bool) "fff-1 most expensive" true (fff1 > acc other))
    [ Facility.fff 2; Facility.frf 1; Facility.frf 2 ]

(* ------------------------------------------------------------------ *)
(* Cross-validation: simulation agrees with the numerical engine *)

let test_simulation_cross_check () =
  (* the simulated fraction of fully-operational time over [0, T] from the
     all-up state is transient-biased for small T, so compare it against the
     exact expected time-average (accumulated indicator reward divided by
     T), which the numerical engine computes for the same horizon *)
  let m = analyze Facility.Line2 Facility.ded in
  let chain = chain_of m in
  let built = Measures.built m in
  let horizon = 500. in
  let full = Semantics.service_at_least built 1. in
  let rng = Numeric.Rng.create 7L in
  let est =
    Ctmc.Simulate.estimate chain rng ~runs:4000 ~horizon ~f:(fun path ->
        Ctmc.Simulate.time_in path ~horizon ~pred:full /. horizon)
  in
  let indicator =
    Array.init (Chain.states chain) (fun s -> if full s then 1. else 0.)
  in
  let exact = Ctmc.Rewards.accumulated chain ~reward:indicator ~upto:horizon /. horizon in
  Alcotest.(check bool)
    (Printf.sprintf "simulated time-average %.4f vs exact %.4f (se %.4f)"
       est.Ctmc.Simulate.mean exact est.Ctmc.Simulate.std_error)
    true
    (Float.abs (est.Ctmc.Simulate.mean -. exact)
     < (6. *. est.Ctmc.Simulate.std_error) +. 0.001)

(* Lumping ablation: the Line 2 dedicated chain lumps by component-kind
   symmetry while preserving the availability measure. *)
let test_lumping_reduces_line2 () =
  let m = analyze Facility.Line2 Facility.ded in
  let built = Measures.built m in
  let chain = chain_of m in
  let n = Chain.states chain in
  (* initial partition: states with the same (st count, sf count, res, pump
     count, full-service flag) are candidates for merging *)
  let key s =
    let st = Semantics.state built s in
    let count lo hi =
      let acc = ref 0 in
      for i = lo to hi do
        if st.Semantics.up.(i) then incr acc
      done;
      !acc
    in
    (* component order: st1..3 sf1..2 res pump1..3 *)
    Printf.sprintf "%d/%d/%b/%d" (count 0 2) (count 3 4) st.Semantics.up.(5) (count 6 8)
  in
  let initial = Ctmc.Lumping.partition_by_key n key in
  let r = Ctmc.Lumping.lump chain ~initial in
  Alcotest.(check bool)
    (Printf.sprintf "lumped %d -> %d" n (Chain.states r.Ctmc.Lumping.quotient))
    true
    (Chain.states r.Ctmc.Lumping.quotient < n / 3);
  (* availability preserved *)
  let full = Semantics.service_at_least built 1. in
  let full_blocks =
    Array.init (Chain.states r.Ctmc.Lumping.quotient) (fun b ->
        match r.Ctmc.Lumping.blocks.(b) with
        | s :: _ -> full s
        | [] -> false)
  in
  let avail_lumped =
    Ctmc.Steady_state.long_run_probability r.Ctmc.Lumping.quotient ~pred:(fun b ->
        full_blocks.(b))
  in
  check_close ~eps:1e-8 "availability preserved" (Measures.availability m) avail_lumped

let test_lumping_idempotent_ded () =
  (* lumping an already-lumped DED line finds nothing more to merge: the
     quotient re-lumped under the image of the same respected partition
     keeps every block *)
  let m = analyze Facility.Line2 Facility.ded in
  let built = Measures.built m in
  let chain = chain_of m in
  let full = Semantics.service_at_least built 1. in
  let key s = if full s then "f" else "d" in
  let initial = Ctmc.Lumping.partition_by_key (Chain.states chain) key in
  let r = Ctmc.Lumping.lump chain ~initial in
  let q = r.Ctmc.Lumping.quotient in
  let nq = Chain.states q in
  Alcotest.(check bool) "first lump reduces" true (nq < Chain.states chain);
  let key_q b =
    match r.Ctmc.Lumping.blocks.(b) with
    | rep :: _ -> key rep
    | [] -> assert false
  in
  let initial_q = Ctmc.Lumping.partition_by_key nq key_q in
  let r2 = Ctmc.Lumping.lump q ~initial:initial_q in
  Alcotest.(check int) "second lump is identity" nq
    (Chain.states r2.Ctmc.Lumping.quotient)

(* Quotient-vs-full engine equivalence on the paper's measures: Table 2
   availability, Fig. 3 unreliability and Fig. 4 survivability must agree
   to 1e-9 between the full chain and the symmetric build, the quotient
   under interchangeable tanks, filters and pumps. *)
let test_quotient_engine_agrees config =
  let model line = Facility.line_model line config in
  List.iter
    (fun line ->
      let full = Measures.analyze (model line) in
      let lumped = Measures.analyze ~symmetric:true (model line) in
      check_close ~eps:1e-9
        (Printf.sprintf "availability (%s)" (Facility.config_name config))
        (Measures.availability full)
        (Measures.availability lumped);
      check_close ~eps:1e-9
        (Printf.sprintf "unreliability (%s)" (Facility.config_name config))
        (Measures.unreliability full ~time:1000.)
        (Measures.unreliability lumped ~time:1000.);
      Alcotest.(check bool) "quotient is smaller" true
        (Chain.states (chain_of lumped) < Chain.states (chain_of full)))
    [ Facility.Line1; Facility.Line2 ];
  (* survivability from the disaster state (Fig. 4 setting, Line 2 for
     speed) *)
  let failed = Facility.disaster2 in
  let full =
    Facility.analyze_after_disaster Facility.Line2 config ~failed
  in
  let lumped =
    Facility.after_disaster
      (Measures.analyze ~symmetric:true (model Facility.Line2))
      ~failed
  in
  List.iter
    (fun level ->
      check_close ~eps:1e-9
        (Printf.sprintf "survivability level %.2f (%s)" level
           (Facility.config_name config))
        (Measures.survivability full ~service_level:level ~time:10.)
        (Measures.survivability lumped ~service_level:level ~time:10.))
    [ 1. /. 3.; 1. ]

let test_quotient_engine_agrees_ded () =
  test_quotient_engine_agrees Facility.ded

let test_quotient_engine_agrees_frf1 () =
  test_quotient_engine_agrees (Facility.frf 1)

(* ------------------------------------------------------------------ *)
(* Experiment plumbing: ids, rendering, CSV *)

let test_experiment_ids_complete () =
  Alcotest.(check (list string)) "paper artifacts"
    [ "table1"; "table2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9";
      "fig10"; "fig11" ]
    Experiments.ids;
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " resolvable") true (Experiments.by_id id <> None))
    Experiments.ids;
  Alcotest.(check bool) "unknown id" true (Experiments.by_id "fig99" = None)

let test_figure_rendering () =
  let fig = Experiments.fig3 ~points:3 () in
  Alcotest.(check int) "two series" 2 (List.length fig.Experiments.series);
  List.iter
    (fun s -> Alcotest.(check int) "three points" 3 (List.length s.Experiments.points))
    fig.Experiments.series;
  (* CSV: header + 3 rows; one time column + 2 series columns *)
  let csv = Experiments.figure_to_csv fig in
  let lines = String.split_on_char '
' (String.trim csv) in
  Alcotest.(check int) "csv rows" 4 (List.length lines);
  let header = List.hd lines in
  Alcotest.(check int) "csv columns" 3
    (List.length (String.split_on_char ',' header));
  (* gnuplot rendering mentions every series label *)
  let text = Format.asprintf "%a" Experiments.render_figure fig in
  List.iter
    (fun s ->
      let found =
        let n = String.length text and m = String.length s.Experiments.label in
        let rec go i = i + m <= n && (String.sub text i m = s.Experiments.label || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("series " ^ s.Experiments.label) true found)
    fig.Experiments.series

let test_table_rendering () =
  let table =
    { Experiments.table_id = "t"; title = "T"; header = [ "a"; "bb" ];
      rows = [ [ "1"; "2" ]; [ "333"; "4" ] ] }
  in
  let text = Format.asprintf "%a" Experiments.render_table table in
  let lines = String.split_on_char '
' (String.trim text) in
  (* title + header + separator + 2 rows *)
  Alcotest.(check int) "line count" 5 (List.length lines)

(* ------------------------------------------------------------------ *)
(* Ablations (extensions beyond the paper) *)

let test_ablation_crew_sweep () =
  let table = Ablations.crew_sweep ~max_crews:2 Facility.Line2 in
  (* 2 crews x 2 strategies + DED *)
  Alcotest.(check int) "rows" 5 (List.length table.Experiments.rows);
  (* availability column is monotone in crews for each strategy *)
  let avail row = float_of_string (List.nth row 2) in
  let rows = Array.of_list table.Experiments.rows in
  Alcotest.(check bool) "frf monotone" true (avail rows.(1) >= avail rows.(0));
  Alcotest.(check bool) "fff monotone" true (avail rows.(3) >= avail rows.(2));
  (* DED availability matches the paper *)
  check_close ~eps:5e-7 "ded row" 0.8186317 (avail rows.(4))

let test_ablation_strategy_matrix () =
  let table = Ablations.strategy_matrix Facility.Line2 in
  Alcotest.(check int) "rows" 9 (List.length table.Experiments.rows);
  let find label =
    List.find (fun row -> List.hd row = label) table.Experiments.rows
  in
  let avail row = float_of_string (List.nth row 3) in
  (* preemptive FRF-1 has a smaller state space than non-preemptive *)
  let states row = int_of_string (List.nth row 1) in
  Alcotest.(check bool) "preemption shrinks" true
    (states (find "FRF-1p") < states (find "FRF-1"));
  (* and availability stays in the same ballpark *)
  Alcotest.(check bool) "availability close" true
    (Float.abs (avail (find "FRF-1p") -. avail (find "FRF-1")) < 0.002)

let test_ablation_lumping_table () =
  let table = Ablations.lumping_table () in
  List.iter
    (fun row ->
      let full = List.nth row 4 and lumped = List.nth row 5 in
      Alcotest.(check string) "availability preserved" full lumped;
      Alcotest.(check bool) "reduced" true
        (int_of_string (List.nth row 2) < int_of_string (List.nth row 1)))
    table.Experiments.rows

let test_ablation_erlang_repair () =
  let table = Ablations.erlang_repair_table ~levels:[ 1; 3 ] () in
  Alcotest.(check int) "rows" 2 (List.length table.Experiments.rows);
  let rows = Array.of_list table.Experiments.rows in
  let col i row = float_of_string (List.nth row i) in
  (* early recovery is less likely with low-variance repairs *)
  Alcotest.(check bool) "P(full<=1h) drops" true (col 3 rows.(1) < col 3 rows.(0));
  (* availability moves only marginally (queueing effect) *)
  Alcotest.(check bool) "availability close" true
    (Float.abs (col 2 rows.(1) -. col 2 rows.(0)) < 1e-3)

(* ------------------------------------------------------------------ *)
(* Multi-point curve kernel: on the paper's own figure configurations, a
   curve from the shared one-sweep kernel must match sequential per-point
   queries (bounded until / instantaneous / accumulated) to 1e-9 *)

let equiv_times upto = List.init 4 (fun i -> upto *. float_of_int (i + 1) /. 4.)

let check_curve label times curve pointwise =
  List.iter2
    (fun t (t', v) ->
      check_close ~eps:1e-12 (Printf.sprintf "%s time %g" label t) t t';
      check_close ~eps:1e-9 (Printf.sprintf "%s(%g)" label t) (pointwise t) v)
    times curve

let test_fig3_curve_matches_pointwise () =
  List.iter
    (fun line ->
      let m = Measures.analyze (Facility.reliability_model line) in
      let times = equiv_times 1000. in
      check_curve
        ("reliability " ^ Facility.line_name line)
        times
        (Measures.reliability_curve m ~times)
        (fun t -> Measures.reliability m ~time:t))
    [ Facility.Line1; Facility.Line2 ]

let d1_equiv_configs = [ Facility.ded; Facility.frf 1; Facility.frf 2 ]

let test_fig4_curve_matches_pointwise () =
  let times = equiv_times 4.5 in
  let level = 1. /. 3. in
  List.iter
    (fun config ->
      let m =
        analyze ~disaster:(Facility.disaster1 Facility.Line1) Facility.Line1 config
      in
      check_curve
        ("survivability " ^ Facility.config_name config)
        times
        (Measures.survivability_curve m ~service_level:level ~times)
        (fun t -> Measures.survivability m ~service_level:level ~time:t))
    d1_equiv_configs

let test_fig6_curve_matches_pointwise () =
  let times = equiv_times 4.5 in
  List.iter
    (fun config ->
      let m =
        analyze ~disaster:(Facility.disaster1 Facility.Line1) Facility.Line1 config
      in
      check_curve
        ("instantaneous cost " ^ Facility.config_name config)
        times
        (fst (Measures.cost_curves m ~times))
        (fun t -> Measures.instantaneous_cost m ~time:t))
    d1_equiv_configs

let test_fig7_curve_matches_pointwise () =
  let times = equiv_times 10. in
  List.iter
    (fun config ->
      let m =
        analyze ~disaster:(Facility.disaster1 Facility.Line1) Facility.Line1 config
      in
      check_curve
        ("accumulated cost " ^ Facility.config_name config)
        times
        (Measures.accumulated_cost_curve m ~times)
        (fun t -> Measures.accumulated_cost m ~time:t))
    d1_equiv_configs

let test_scc_order_on_reliability_model () =
  (* the reliability models carry no repair unit, so their chains are DAGs
     over failure subsets (every state its own SCC): SCC-topological
     Gauss-Seidel reaches the unbounded-until fixpoint in a couple of
     sweeps, while the natural exploration order (fewest failures first)
     is anti-topological and needs roughly one sweep per failure level *)
  let m = Measures.analyze (Facility.reliability_model Facility.Line2) in
  let chain = chain_of m in
  let down = Semantics.down_pred (Measures.built m) in
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let v_nat = Ctmc.Reachability.eventually ~scc_order:false chain ~psi:down in
  let v_scc = Ctmc.Reachability.eventually chain ~psi:down in
  Obs.Metrics.set_enabled was;
  let iters =
    List.filter_map
      (fun s ->
        if s.Obs.Metrics.solver = "gauss_seidel" then Some s.Obs.Metrics.iterations
        else None)
      (Obs.Metrics.snapshot ()).Obs.Metrics.solves
  in
  (match iters with
  | [ natural; ordered ] ->
      Alcotest.(check bool)
        (Printf.sprintf "fewer sweeps on line 2 reliability (%d < %d)" ordered
           natural)
        true (ordered < natural)
  | _ -> Alcotest.fail "expected exactly two gauss_seidel solves");
  Array.iteri
    (fun s expected ->
      check_close ~eps:1e-11 (Printf.sprintf "fixpoint state %d" s) expected
        v_scc.(s))
    v_nat

let test_ablation_importance () =
  let table = Ablations.importance_table Facility.Line2 in
  (* the reservoir must rank first by Birnbaum importance *)
  match table.Experiments.rows with
  | first :: _ -> Alcotest.(check string) "res first" "res" (List.hd first)
  | [] -> Alcotest.fail "empty table"

(* ------------------------------------------------------------------ *)
(* The reward-projected kernel face on the paper's chains: every point of
   [poisson_mixture_values] must equal the vector face dotted with the
   same reward, on the full chain and on its symmetric build, in both
   directions, with identical work counters *)

module Analysis = Ctmc.Analysis

(* 25 points: t = 0, an ascending grid, then an unsorted pair that also
   duplicates two grid points *)
let projected_times =
  List.init 23 (fun i -> 2.5 *. float_of_int i) @ [ 20.; 5. ]

let check_rel msg expected actual =
  let scale = Float.max (Float.abs expected) (Float.abs actual) in
  if Float.abs (expected -. actual) > 1e-12 *. scale then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

(* [f]'s result and the passes, steps and columns its sweeps ran *)
let work f =
  let count = Counts.start () in
  let x = f () in
  (x, (count "mixture_passes", count "mixture_steps", count "batch_columns"))

let check_projected_faces label chain reward =
  let n = Chain.states chain in
  let init = Chain.initial chain in
  List.iter
    (fun (dir, dir_name) ->
      (* forward: start from the initial distribution, project on the
         reward; backward: start from the reward, project on the initial
         distribution *)
      let start, r =
        match dir with
        | Analysis.Forward -> (init, reward)
        | Analysis.Backward -> (reward, init)
      in
      let batches =
        List.map
          (fun coeff -> { Analysis.start; coeff; times = projected_times })
          [ Analysis.Pmf; Analysis.Tail_over_lambda ]
      in
      let vectors, work_v =
        work (fun () ->
            Analysis.poisson_mixture_batch (Analysis.create chain) ~dir batches)
      in
      let values, work_p =
        work (fun () ->
            Analysis.poisson_mixture_values (Analysis.create chain) ~dir
              (List.map (fun b -> (b, r)) batches))
      in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "%s %s: same passes/steps/columns" label dir_name)
        work_v work_p;
      List.iteri
        (fun stream (vs, xs) ->
          Alcotest.(check int) "aligned with times" 25 (List.length xs);
          List.iteri
            (fun i ((tm, v), x) ->
              Alcotest.(check int) "dimension" n (Array.length v);
              check_rel
                (Printf.sprintf "%s %s stream %d point %d (t=%g)" label
                   dir_name stream i tm)
                (Numeric.Vec.dot v r) x)
            (List.combine (List.combine projected_times vs) xs))
        (List.combine vectors values))
    [ (Analysis.Forward, "forward"); (Analysis.Backward, "backward") ]

let test_projected_faces_agree config () =
  let m = analyze Facility.Line2 config in
  let chain = chain_of m in
  let reward = m.Measures.cost in
  let name = Facility.config_name config in
  check_projected_faces name chain reward;
  (* the same kernel on the symmetric build, against its cost vector *)
  let sym = Measures.analyze ~symmetric:true (Facility.line_model Facility.Line2 config) in
  let qchain = chain_of sym in
  Alcotest.(check bool) "quotient is smaller" true
    (Chain.states qchain < Chain.states chain);
  check_projected_faces (name ^ " symmetric") qchain sym.Measures.cost;
  (* and the cost-curve entry point agrees with the vector face, on both
     chains *)
  List.iter
    (fun (chain_label, ch, r) ->
      let inst, acc =
        Ctmc.Rewards.both_curves ~analysis:(Analysis.create ch) ch ~reward:r
          ~times:projected_times
      in
      let a = Analysis.create ch in
      let start = Chain.initial ch in
      let expect coeff =
        match
          Analysis.poisson_mixture_batch a ~dir:Analysis.Forward
            [ { Analysis.start; coeff; times = projected_times } ]
        with
        | [ vs ] -> List.map (fun v -> Numeric.Vec.dot v r) vs
        | _ -> assert false
      in
      List.iter2
        (fun (label, curve) expected ->
          List.iter2
            (fun (_, x) e ->
              check_rel (Printf.sprintf "%s %s %s" name chain_label label) e x)
            curve expected)
        [ ("instantaneous", inst); ("accumulated", acc) ]
        [ expect Analysis.Pmf; expect Analysis.Tail_over_lambda ])
    [ ("full", chain, reward); ("symmetric", qchain, sym.Measures.cost) ]

(* ------------------------------------------------------------------ *)
(* Rooted views: one state space per (line, config) *)

(* The disaster view of the cached all-up chain against a build from the
   disaster state: equal state counts, and survivability at both figure
   service levels and both cost curves within 1e-12 relative *)
let check_rooted_matches_rebuild line config ~failed ~horizon =
  let name = Facility.line_name line ^ "/" ^ Facility.config_name config in
  let view = analyze ~disaster:failed line config in
  let rebuilt =
    Facility.analyze
      ~initial:(Semantics.disaster_state (Facility.line_model line config) ~failed)
      line config
  in
  Alcotest.(check int) (name ^ " states")
    (Chain.states (chain_of rebuilt))
    (Chain.states (chain_of view));
  let times = List.init 5 (fun i -> horizon *. float_of_int i /. 4.) in
  let agree what a b =
    List.iter2
      (fun (t, x) (_, y) -> check_rel (Printf.sprintf "%s %s t=%g" name what t) y x)
      a b
  in
  List.iter
    (fun level ->
      agree
        (Printf.sprintf "survivability %.2f" level)
        (Measures.survivability_curve view ~service_level:level ~times)
        (Measures.survivability_curve rebuilt ~service_level:level ~times))
    [ 1. /. 3.; 2. /. 3. ];
  let vi, va = Measures.cost_curves view ~times in
  let ri, ra = Measures.cost_curves rebuilt ~times in
  agree "instantaneous cost" vi ri;
  agree "accumulated cost" va ra

let test_rooted_line2_disaster2 () =
  List.iter
    (fun config ->
      check_rooted_matches_rebuild Facility.Line2 config ~failed:d2 ~horizon:100.)
    [ Facility.ded; Facility.fff 1; Facility.fff 2; Facility.frf 1; Facility.frf 2 ]

let test_rooted_line1_disaster1 () =
  check_rooted_matches_rebuild Facility.Line1 Facility.ded ~failed:d1 ~horizon:4.5

let test_points_below_two () =
  List.iter
    (fun (id, gen) ->
      List.iter
        (fun points ->
          Alcotest.check_raises
            (Printf.sprintf "%s points=%d" id points)
            (Invalid_argument
               (Printf.sprintf "Experiments.%s: points must be at least 2 (got %d)"
                  id points))
            (fun () -> ignore (gen ~points ())))
        [ 1; 0 ])
    [
      ("fig3", fun ~points () -> ignore (Experiments.fig3 ~points ()));
      ("fig4", fun ~points () -> ignore (Experiments.fig4 ~points ()));
      ("fig11", fun ~points () -> ignore (Experiments.fig11 ~points ()));
    ]

let () =
  Alcotest.run "watertreatment"
    [
      ( "model",
        [
          Alcotest.test_case "component rates" `Quick test_component_rates;
          Alcotest.test_case "line shapes" `Quick test_line_shapes;
          Alcotest.test_case "service intervals" `Quick test_service_intervals;
        ] );
      ( "table1",
        [
          Alcotest.test_case "dedicated counts exact" `Quick test_table1_dedicated_counts;
          Alcotest.test_case "single-crew counts match paper" `Slow
            test_table1_single_crew_counts_match_paper;
          Alcotest.test_case "frf/fff same size" `Quick test_table1_frf_fff_same_size;
        ] );
      ( "table2",
        [
          Alcotest.test_case "dedicated rows exact" `Quick test_table2_dedicated_exact;
          Alcotest.test_case "queue strategies close" `Slow
            test_table2_queue_strategies_close;
          Alcotest.test_case "qualitative ordering" `Slow test_table2_ordering;
        ] );
      ( "fig3",
        [
          Alcotest.test_case "line 2 more reliable" `Quick test_fig3_line2_more_reliable;
          Alcotest.test_case "monotone decreasing" `Quick test_fig3_monotone;
        ] );
      ( "fig4-5",
        [
          Alcotest.test_case "strategy ordering" `Slow test_fig45_ordering;
          Alcotest.test_case "X2 slower than X1" `Slow test_fig45_x2_slower_than_x1;
          Alcotest.test_case "1-crew strategies coincide" `Slow
            test_d1_one_crew_strategies_equal;
        ] );
      ( "fig6-7",
        [
          Alcotest.test_case "initial instantaneous cost" `Slow test_fig6_initial_cost;
          Alcotest.test_case "convergence to steady cost" `Slow
            test_fig6_convergence_to_steady;
          Alcotest.test_case "accumulated ordering" `Slow test_fig7_accumulated_ordering;
        ] );
      ( "fig8-9",
        [
          Alcotest.test_case "fff-1 slowest, ded fastest" `Slow test_fig8_fff1_slowest;
          Alcotest.test_case "higher level slower" `Slow test_fig9_x3_llevels;
        ] );
      ( "projected-kernel",
        [
          Alcotest.test_case "values = vectors . r (line2 frf-1)" `Quick
            (test_projected_faces_agree (Facility.frf 1));
          Alcotest.test_case "values = vectors . r (line2 ded)" `Quick
            (test_projected_faces_agree Facility.ded);
        ] );
      ( "fig10-11",
        [
          Alcotest.test_case "initial cost" `Slow test_fig10_initial_cost;
          Alcotest.test_case "fff-1 most expensive" `Slow test_fig11_fff1_most_expensive;
        ] );
      ( "multi-kernel",
        [
          Alcotest.test_case "fig3 curve = pointwise" `Quick
            test_fig3_curve_matches_pointwise;
          Alcotest.test_case "fig4 curve = pointwise" `Slow
            test_fig4_curve_matches_pointwise;
          Alcotest.test_case "fig6 curve = pointwise" `Slow
            test_fig6_curve_matches_pointwise;
          Alcotest.test_case "fig7 curve = pointwise" `Slow
            test_fig7_curve_matches_pointwise;
          Alcotest.test_case "scc order on reliability model" `Quick
            test_scc_order_on_reliability_model;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "simulation agrees" `Slow test_simulation_cross_check;
          Alcotest.test_case "lumping preserves availability" `Slow
            test_lumping_reduces_line2;
          Alcotest.test_case "lumping idempotent on DED" `Quick
            test_lumping_idempotent_ded;
          Alcotest.test_case "quotient engine agrees (DED)" `Slow
            test_quotient_engine_agrees_ded;
          Alcotest.test_case "quotient engine agrees (FRF-1)" `Slow
            test_quotient_engine_agrees_frf1;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "experiment ids" `Quick test_experiment_ids_complete;
          Alcotest.test_case "figure rendering" `Quick test_figure_rendering;
          Alcotest.test_case "table rendering" `Quick test_table_rendering;
          Alcotest.test_case "points below two" `Quick test_points_below_two;
        ] );
      ( "rooted",
        [
          Alcotest.test_case "= rebuild (line 2, disaster 2)" `Quick
            test_rooted_line2_disaster2;
          Alcotest.test_case "= rebuild (line 1 DED, disaster 1)" `Quick
            test_rooted_line1_disaster1;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "crew sweep" `Slow test_ablation_crew_sweep;
          Alcotest.test_case "strategy matrix" `Slow test_ablation_strategy_matrix;
          Alcotest.test_case "lumping table" `Slow test_ablation_lumping_table;
          Alcotest.test_case "erlang repair" `Slow test_ablation_erlang_repair;
          Alcotest.test_case "importance table" `Slow test_ablation_importance;
        ] );
    ]
