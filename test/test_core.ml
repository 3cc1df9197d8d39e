(* Tests for the Arcade core: components, repair units, spare management,
   model validation, the direct CTMC semantics, the measure layer, the XML
   format and the PRISM translation. *)

module Component = Core.Component
module Repair = Core.Repair
module Spare = Core.Spare
module Model = Core.Model
module Semantics = Core.Semantics
module Measures = Core.Measures
module Xml_io = Core.Xml_io
module To_prism = Core.To_prism
module Chain = Ctmc.Chain

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let decoded_states built =
  Array.init (Chain.states built.Semantics.chain) (Semantics.state built)

(* substring containment without external deps *)
module Astring_like = struct
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    nn = 0 || go 0
end

let comp ?(mttf = 100.) ?(mttr = 2.) name = Component.make ~name ~mttf ~mttr ()

(* a 3-component system: a, b redundant pair; c in series *)
let abc_tree =
  Fault_tree.or_
    [ Fault_tree.and_ [ Fault_tree.basic "a"; Fault_tree.basic "b" ]; Fault_tree.basic "c" ]

let abc_model ?(repair_units = []) ?(spare_units = []) () =
  Model.make ~name:"abc"
    ~components:[ comp "a"; comp "b"; comp ~mttf:200. ~mttr:10. "c" ]
    ~repair_units ~spare_units ~fault_tree:abc_tree ()

let fcfs_unit ?(crews = 1) ?(preemptive = false) () =
  Repair.make ~name:"ru" ~strategy:Repair.Fcfs ~crews ~preemptive
    ~components:[ "a"; "b"; "c" ] ()

(* ------------------------------------------------------------------ *)
(* Component / Repair / Spare / Model validation *)

(* [f ()] raises Invalid_argument *)
let rejected what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let test_component_validation () =
  Alcotest.check_raises "bad mttf" (Invalid_argument "Component.make: MTTF must be positive")
    (fun () -> ignore (Component.make ~name:"x" ~mttf:0. ~mttr:1. ()));
  Alcotest.check_raises "nan mttf"
    (Invalid_argument "Component.make: MTTF must be finite (got nan)") (fun () ->
      ignore (Component.make ~name:"x" ~mttf:Float.nan ~mttr:1. ()));
  List.iter
    (fun x ->
      let v = Printf.sprintf "%g" x in
      rejected ("mttf " ^ v) (fun () -> Component.make ~name:"x" ~mttf:x ~mttr:1. ());
      rejected ("mttr " ^ v) (fun () -> Component.make ~name:"x" ~mttf:1. ~mttr:x ());
      rejected ("failed_cost " ^ v) (fun () ->
          Component.make ~name:"x" ~mttf:1. ~mttr:1. ~failed_cost:x ());
      rejected ("operational_cost " ^ v) (fun () ->
          Component.make ~name:"x" ~mttf:1. ~mttr:1. ~operational_cost:x ());
      rejected ("mode mttf " ^ v) (fun () ->
          Component.failure_mode ~name:"m" ~mttf:x ~mttr:1. ());
      rejected ("mode mttr " ^ v) (fun () ->
          Component.failure_mode ~name:"m" ~mttf:1. ~mttr:x ());
      rejected ("mode cost " ^ v) (fun () ->
          Component.failure_mode ~name:"m" ~mttf:1. ~mttr:1. ~failed_cost:x ()))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  let c = comp "x" in
  check_close "failure rate" 0.01 (Component.failure_rate c);
  check_close "repair rate" 0.5 (Component.repair_rate c)

let test_repair_validation () =
  Alcotest.check_raises "no components"
    (Invalid_argument "Repair.make: no components") (fun () ->
      ignore (Repair.make ~name:"r" ~strategy:Repair.Fcfs ~components:[] ()));
  Alcotest.check_raises "bad priority list"
    (Invalid_argument "Repair.make: priority list must cover exactly the unit's components")
    (fun () ->
      ignore
        (Repair.make ~name:"r" ~strategy:(Repair.Priority [ "a" ])
           ~components:[ "a"; "b" ] ()));
  List.iter
    (fun x ->
      let v = Printf.sprintf "%g" x in
      rejected ("idle_cost " ^ v) (fun () ->
          Repair.make ~name:"r" ~strategy:Repair.Fcfs ~components:[ "a" ] ~idle_cost:x ());
      rejected ("busy_cost " ^ v) (fun () ->
          Repair.make ~name:"r" ~strategy:Repair.Fcfs ~components:[ "a" ] ~busy_cost:x ()))
    [ -1.; Float.nan; Float.infinity ]

let test_repair_strategy_strings () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "roundtrip" true
        (Repair.strategy_of_string (Repair.strategy_to_string s) = s))
    [ Repair.Dedicated; Repair.Fcfs; Repair.Frf; Repair.Fff ]

let test_repair_ranks () =
  let ru =
    Repair.make ~name:"r" ~strategy:Repair.Frf ~components:[ "a"; "b"; "c" ] ()
  in
  let lookup = function
    | "a" -> comp ~mttr:1. "a"
    | "b" -> comp ~mttr:5. "b"
    | "c" -> comp ~mttr:1. "c"
    | _ -> assert false
  in
  Alcotest.(check int) "fast repair first" 0 (Repair.priority_rank ru lookup "a");
  Alcotest.(check int) "ties share rank" 0 (Repair.priority_rank ru lookup "c");
  Alcotest.(check int) "slow repair later" 1 (Repair.priority_rank ru lookup "b")

let test_spare_activation () =
  List.iter
    (fun f ->
      rejected (Printf.sprintf "warm factor %g" f) (fun () ->
          Spare.make ~name:"s" ~mode:(Spare.Warm f) ~primaries:[ "p1" ] ~spares:[ "s1" ] ()))
    [ 0.; 1.; Float.nan; Float.infinity ]

let test_model_validation () =
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Model: duplicate component a") (fun () ->
      ignore
        (Model.make ~name:"m" ~components:[ comp "a"; comp "a" ]
           ~fault_tree:(Fault_tree.basic "a") ()));
  Alcotest.check_raises "unknown in fault tree"
    (Invalid_argument "Model: fault tree references unknown component zz") (fun () ->
      ignore
        (Model.make ~name:"m" ~components:[ comp "a" ]
           ~fault_tree:(Fault_tree.basic "zz") ()));
  Alcotest.check_raises "double repair"
    (Invalid_argument "Model: component a repaired by two units") (fun () ->
      ignore
        (Model.make ~name:"m" ~components:[ comp "a" ]
           ~repair_units:
             [
               Repair.make ~name:"r1" ~strategy:Repair.Fcfs ~components:[ "a" ] ();
               Repair.make ~name:"r2" ~strategy:Repair.Fcfs ~components:[ "a" ] ();
             ]
           ~fault_tree:(Fault_tree.basic "a") ()))

let test_model_service_levels () =
  let model = abc_model () in
  let levels = Model.service_levels model in
  (* service tree: and(or(a,b), c): levels {0, 1/2, 1} *)
  Alcotest.(check int) "3 levels" 3 (List.length levels);
  check_close "middle" 0.5 (List.nth levels 1)

(* ------------------------------------------------------------------ *)
(* Semantics: structure of the generated chains *)

let test_semantics_unrepaired_reliability () =
  (* no repair units: 2^3 = 8 states, absorbing all-failed *)
  let built = Semantics.build (abc_model ()) in
  Alcotest.(check int) "8 states" 8 (Chain.states built.Semantics.chain);
  (* analytic reliability of the series-parallel system *)
  let m = Measures.analyze (abc_model ()) in
  let t = 50. in
  let pa = Float.exp (-.t /. 100.) in
  let pc = Float.exp (-.t /. 200.) in
  ignore pa;
  (* full service requires everything up: e^-(2/100 + 1/200) t *)
  check_close ~eps:1e-9 "full-service reliability"
    (Float.exp (-.t *. ((2. /. 100.) +. (1. /. 200.))))
    (Measures.reliability m ~time:t);
  (* any-service reliability: (1 - (1-pa)^2) * pc *)
  let any_service =
    Ctmc.Reachability.bounded_until_from_init built.Semantics.chain
      ~phi:(fun _ -> true)
      ~psi:(Semantics.down_pred built) ~bound:t
  in
  check_close ~eps:1e-9 "fault-tree reliability"
    (1. -. ((1. -. ((2. *. pa) -. (pa *. pa))) *. 1. +. (1. -. pc) -. (1. -. ((2. *. pa) -. (pa *. pa))) *. (1. -. pc)))
    (1. -. any_service)

let test_semantics_dedicated_product_form () =
  (* dedicated repair = independent components; availability factorizes *)
  let ded =
    Repair.make ~name:"ded" ~strategy:Repair.Dedicated ~components:[ "a"; "b"; "c" ] ()
  in
  let m = Measures.analyze (abc_model ~repair_units:[ ded ] ()) in
  let avail_a = 100. /. 102. and avail_c = 200. /. 210. in
  check_close ~eps:1e-9 "product form" (avail_a *. avail_a *. avail_c)
    (Measures.availability m)

let test_semantics_invariants () =
  (* over the full FCFS state space: free crew => empty queue; queue and
     in_repair are disjoint and exactly cover the failed RU components *)
  let built = Semantics.build (abc_model ~repair_units:[ fcfs_unit ~crews:2 () ] ()) in
  Array.iter
    (fun st ->
      let in_r = st.Semantics.in_repair.(0) in
      let q = st.Semantics.queue.(0) in
      let failed =
        List.filter (fun i -> not st.Semantics.up.(i)) [ 0; 1; 2 ]
      in
      let covered = List.sort compare (in_r @ q) in
      Alcotest.(check (list int)) "partition of failed" failed covered;
      if List.length in_r < 2 then Alcotest.(check (list int)) "free crew => empty queue" [] q;
      List.iter
        (fun i -> Alcotest.(check bool) "in_repair failed" false st.Semantics.up.(i))
        in_r)
    (decoded_states built)

let test_semantics_single_crew_counts () =
  (* FCFS with 1 crew on 3 distinct components: states = sum over failed
     subsets of (orderings consistent with one in-repair + queue order) *)
  let built = Semantics.build (abc_model ~repair_units:[ fcfs_unit () ] ()) in
  (* up-sets: 1 (all up) + 3 (one failed) + 6 (two failed, ordered) +
     6 (three failed: crew fixed to first, queue ordered) = 16
     ... queue order of remaining 2 -> 3 choices of in-repair * 2 = 6 *)
  Alcotest.(check int) "state count" 16 (Chain.states built.Semantics.chain)

let test_semantics_fcfs_queue_order_preserved () =
  (* start from disaster where all of a,b,c failed in priority order; the
     first repair completion must be the head of the queue *)
  let model = abc_model ~repair_units:[ fcfs_unit () ] () in
  let disaster = Semantics.disaster_state model ~failed:[ "a"; "b"; "c" ] in
  Alcotest.(check (list int)) "one in repair" [ 0 ] disaster.Semantics.in_repair.(0);
  Alcotest.(check (list int)) "two queued in order" [ 1; 2 ] disaster.Semantics.queue.(0)

let test_semantics_frf_dispatch () =
  (* FRF: after the in-repair component completes, the fastest-repair
     waiting component is dispatched, not the FCFS head *)
  let fast = Component.make ~name:"fast" ~mttf:100. ~mttr:1. () in
  let slow = Component.make ~name:"slow" ~mttf:100. ~mttr:50. () in
  let other = Component.make ~name:"other" ~mttf:100. ~mttr:25. () in
  let ru =
    Repair.make ~name:"ru" ~strategy:Repair.Frf ~components:[ "fast"; "slow"; "other" ] ()
  in
  let model =
    Model.make ~name:"m" ~components:[ fast; slow; other ] ~repair_units:[ ru ]
      ~fault_tree:(Fault_tree.basic "slow") ()
  in
  (* disaster ordered by priority: fast(0) in repair, queue [other; slow] *)
  let disaster = Semantics.disaster_state model ~failed:[ "slow"; "other"; "fast" ] in
  let built = Semantics.build ~initial:disaster model in
  Alcotest.(check (list int)) "queue by mttr rank"
    [ built.Semantics.component_index "other"; built.Semantics.component_index "slow" ]
    disaster.Semantics.queue.(0)

let frf_unit ?(crews = 1) ?(preemptive = false) () =
  Repair.make ~name:"ru" ~strategy:Repair.Frf ~crews ~preemptive
    ~components:[ "a"; "b"; "c" ] ()

let test_semantics_preemptive_smaller_space () =
  (* with distinct priorities, preemption drops the in-repair bookkeeping
     (the crew always works on the queue head): strictly fewer states *)
  let np = Semantics.build (abc_model ~repair_units:[ frf_unit () ] ()) in
  let pre =
    Semantics.build (abc_model ~repair_units:[ frf_unit ~preemptive:true () ] ())
  in
  Alcotest.(check bool) "preemptive smaller" true
    (Chain.states pre.Semantics.chain < Chain.states np.Semantics.chain);
  (* for FCFS (a single priority class) the two encodings are isomorphic *)
  let np_fcfs = Semantics.build (abc_model ~repair_units:[ fcfs_unit () ] ()) in
  let pre_fcfs =
    Semantics.build (abc_model ~repair_units:[ fcfs_unit ~preemptive:true () ] ())
  in
  Alcotest.(check int) "fcfs isomorphic"
    (Chain.states np_fcfs.Semantics.chain)
    (Chain.states pre_fcfs.Semantics.chain)

let test_semantics_cold_spare_never_fails_dormant () =
  (* cold spare: with both primaries up, the spare cannot fail, so the
     all-up state has only 2 failure transitions *)
  let model =
    Model.make ~name:"m"
      ~components:[ comp "p1"; comp "p2"; comp "s1" ]
      ~spare_units:
        [ Spare.make ~name:"smu" ~mode:Spare.Cold ~primaries:[ "p1"; "p2" ]
            ~spares:[ "s1" ] () ]
      ~repair_units:
        [ Repair.make ~name:"ru" ~strategy:Repair.Dedicated
            ~components:[ "p1"; "p2"; "s1" ] () ]
      ~fault_tree:(Fault_tree.and_ [ Fault_tree.basic "p1"; Fault_tree.basic "p2";
                                     Fault_tree.basic "s1" ]) ()
  in
  let built = Semantics.build model in
  let init = 0 in
  let exits = Chain.exit_rates built.Semantics.chain in
  (* two failure rates of 0.01 each *)
  check_close ~eps:1e-12 "only primaries fail" 0.02 exits.(init)

let test_semantics_warm_spare_rate () =
  let model =
    Model.make ~name:"m"
      ~components:[ comp "p1"; comp "s1" ]
      ~spare_units:
        [ Spare.make ~name:"smu" ~mode:(Spare.Warm 0.5) ~primaries:[ "p1" ]
            ~spares:[ "s1" ] () ]
      ~fault_tree:(Fault_tree.and_ [ Fault_tree.basic "p1"; Fault_tree.basic "s1" ]) ()
  in
  let built = Semantics.build model in
  check_close ~eps:1e-12 "primary full + spare half rate" 0.015
    (Chain.exit_rates built.Semantics.chain).(0)

let test_semantics_service_levels_per_state () =
  let built = Semantics.build (abc_model ()) in
  let all_up = 0 in
  check_close "full service" 1. (Semantics.service_level built all_up);
  Alcotest.(check bool) "full service predicate" true
    (Semantics.service_at_least built 1. all_up);
  (* find the state with only 'a' failed *)
  let found = ref false in
  Array.iteri
    (fun s st ->
      if (not st.Semantics.up.(0)) && st.Semantics.up.(1) && st.Semantics.up.(2) then begin
        found := true;
        check_close "half service" 0.5 (Semantics.service_level built s);
        Alcotest.(check bool) "not down" false (Semantics.down_pred built s)
      end)
    (decoded_states built);
  Alcotest.(check bool) "state found" true !found

let test_semantics_cost_structure () =
  let ded =
    Repair.make ~name:"ded" ~strategy:Repair.Dedicated ~idle_cost:1. ~busy_cost:0.
      ~components:[ "a"; "b"; "c" ] ()
  in
  let built = Semantics.build (abc_model ~repair_units:[ ded ] ()) in
  let component_cost, repair_cost = Semantics.cost_structures built in
  let cost = Numeric.Vec.add component_cost repair_cost in
  (* all-up state: 3 idle crews = 3; component cost 0 *)
  check_close "idle cost" 3. cost.(0);
  (* a state with k failures costs 3k (components) + (3-k) idle *)
  Array.iteri
    (fun s st ->
      let k =
        Array.fold_left (fun acc up -> if up then acc else acc + 1) 0 st.Semantics.up
      in
      check_close "cost formula" ((3. *. float_of_int k) +. float_of_int (3 - k)) cost.(s))
    (decoded_states built)

let test_disaster_state_unknown_component () =
  let model = abc_model () in
  match Semantics.disaster_state model ~failed:[ "zz" ] with
  | exception Semantics.Build_error _ -> ()
  | _ -> Alcotest.fail "expected Build_error"

let test_semantics_max_states () =
  let model = abc_model ~repair_units:[ fcfs_unit () ] () in
  (match Semantics.build ~max_states:15 model with
  | exception Semantics.Build_error _ -> ()
  | _ -> Alcotest.fail "expected Build_error at 16 > 15 states");
  Alcotest.(check int) "exactly at the limit" 16
    (Chain.states (Semantics.build ~max_states:16 model).Semantics.chain)

let test_semantics_state_index_roundtrip () =
  let model = abc_model ~repair_units:[ fcfs_unit ~crews:2 () ] () in
  let disaster = Semantics.disaster_state model ~failed:[ "a"; "b"; "c" ] in
  let from_up = Semantics.build model in
  (* the disaster state is reachable from all-up: it decodes back to itself *)
  (match from_up.Semantics.state_index disaster with
  | None -> Alcotest.fail "disaster state not found"
  | Some s ->
      Alcotest.(check bool) "decodes to the disaster state" true
        (Semantics.state from_up s = disaster));
  Alcotest.(check (option int)) "initial state is 0" (Some 0)
    ((Semantics.build ~initial:disaster model).Semantics.state_index disaster);
  (* every state's decoding indexes back to it *)
  Array.iteri
    (fun s st ->
      Alcotest.(check (option int)) "roundtrip" (Some s)
        (from_up.Semantics.state_index st))
    (decoded_states from_up);
  (* states outside the layout or the explored space are absent *)
  let bad = { disaster with Semantics.queue = [| [ 0; 1; 2; 0 ] |] } in
  Alcotest.(check (option int)) "queue longer than the unit" None
    (from_up.Semantics.state_index bad);
  Alcotest.(check (option int)) "wrong dimensions" None
    (from_up.Semantics.state_index (Semantics.all_up_state (abc_model ())));
  (* a is in repair and queued at once *)
  let twice = { disaster with Semantics.queue = [| [ 0 ] |] } in
  Alcotest.(check (option int)) "component listed twice" None
    (from_up.Semantics.state_index twice);
  List.iter
    (fun initial ->
      match Semantics.build ~initial model with
      | exception Semantics.Build_error _ -> ()
      | _ -> Alcotest.fail "expected Build_error for an unrepresentable initial state")
    [ bad; twice ]

(* ------------------------------------------------------------------ *)
(* Measures *)

let test_measures_survivability_monotone () =
  let ru = fcfs_unit () in
  let model = abc_model ~repair_units:[ ru ] () in
  let init = Semantics.disaster_state model ~failed:[ "a"; "c" ] in
  let m = Measures.analyze ~initial:init model in
  let s1 = Measures.survivability m ~service_level:0.5 ~time:5. in
  let s2 = Measures.survivability m ~service_level:0.5 ~time:20. in
  let s3 = Measures.survivability m ~service_level:1. ~time:20. in
  Alcotest.(check bool) "monotone in t" true (s1 <= s2 +. 1e-12);
  Alcotest.(check bool) "higher level harder" true (s3 <= s2 +. 1e-12);
  Alcotest.(check bool) "non-trivial" true (s1 > 0.01 && s2 < 1.)

let test_measures_survivability_at_zero () =
  (* with only 'a' failed the service level is exactly 1/2: the redundant
     pair delivers half service, the series component is up *)
  let model = abc_model ~repair_units:[ fcfs_unit () ] () in
  let init = Semantics.disaster_state model ~failed:[ "a" ] in
  let m = Measures.analyze ~initial:init model in
  check_close "service 0.5 already there" 1.
    (Measures.survivability m ~service_level:0.5 ~time:0.);
  check_close "full service not yet" 0.
    (Measures.survivability m ~service_level:1. ~time:0.);
  (* failing the series component kills all service *)
  let init_c = Semantics.disaster_state model ~failed:[ "c" ] in
  let m_c = Measures.analyze ~initial:init_c model in
  check_close "no service with c down" 0.
    (Measures.survivability m_c ~service_level:0.5 ~time:0.)

let test_measures_costs () =
  let model = abc_model ~repair_units:[ fcfs_unit () ] () in
  let init = Semantics.disaster_state model ~failed:[ "a"; "b"; "c" ] in
  let m = Measures.analyze ~initial:init model in
  (* at t=0: 3 failed components (cost 9) + 1 busy crew (cost 0) *)
  check_close ~eps:1e-6 "instantaneous at 0" 9. (Measures.instantaneous_cost m ~time:0.);
  let acc5 = Measures.accumulated_cost m ~time:5. in
  let acc10 = Measures.accumulated_cost m ~time:10. in
  Alcotest.(check bool) "accumulated grows" true (acc10 > acc5 && acc5 > 0.);
  (* instantaneous converges to the steady-state cost *)
  let inst = Measures.instantaneous_cost m ~time:2000. in
  check_close ~eps:1e-5 "converges to steady cost" (Measures.steady_state_cost m) inst

let test_measures_csl_agreement () =
  (* every measure computed directly must agree with its CSL query *)
  let model = abc_model ~repair_units:[ fcfs_unit () ] () in
  let m = Measures.analyze model in
  let csl = Measures.to_csl_model m in
  let v q =
    match Csl.Checker.check_string csl q with
    | Csl.Checker.Value v -> v
    | Csl.Checker.Satisfied _ -> Alcotest.fail "expected value"
  in
  check_close ~eps:1e-9 "availability vs CSL" (Measures.availability m)
    (v {|S=? [ "full_service" ]|});
  check_close ~eps:1e-9 "any service vs CSL" (Measures.any_service_availability m)
    (v {|S=? [ "operational" ]|});
  check_close ~eps:1e-9 "unreliability vs CSL"
    (Measures.unreliability m ~time:25.)
    (v {|P=? [ true U<=25 !"full_service" ]|});
  check_close ~eps:1e-9 "cost vs CSL"
    (Measures.accumulated_cost m ~time:10.)
    (v {|R{"cost"}=? [ C<=10 ]|})

let test_combined_availability () =
  check_close ~eps:1e-6 "two lines" 0.9536063
    (Measures.combined_availability [ 0.7442018; 0.8186317 ]);
  check_close "identity" 0.5 (Measures.combined_availability [ 0.5 ]);
  check_close "empty product" 0. (Measures.combined_availability [])

(* ------------------------------------------------------------------ *)
(* Erlang repair stages *)

let erlang_cdf k rate t =
  (* P(Erlang(k, rate) <= t) = 1 - sum_{j<k} e^-rt (rt)^j / j! *)
  let rt = rate *. t in
  let rec go j term acc =
    if j >= k then acc
    else go (j + 1) (term *. rt /. float_of_int (j + 1)) (acc +. term)
  in
  1. -. (Float.exp (-.rt) *. go 0 1. 0.)

let single_staged_model k =
  Model.make ~name:"staged"
    ~components:[ Component.make ~name:"c" ~mttf:1000. ~mttr:10. ~repair_stages:k () ]
    ~repair_units:
      [ Repair.make ~name:"ru" ~strategy:Repair.Dedicated ~components:[ "c" ] () ]
    ~fault_tree:(Fault_tree.basic "c") ()

let test_stages_state_count () =
  let built = Semantics.build (single_staged_model 3) in
  (* up + 3 repair stages *)
  Alcotest.(check int) "4 states" 4 (Chain.states built.Semantics.chain)

let test_stages_repair_distribution () =
  (* from the failed state, the time to repair is Erlang(k, k/mttr) *)
  let k = 4 in
  let model = single_staged_model k in
  let init = Semantics.disaster_state model ~failed:[ "c" ] in
  let m = Measures.analyze ~initial:init model in
  List.iter
    (fun t ->
      check_close ~eps:1e-9
        (Printf.sprintf "erlang cdf at %g" t)
        (erlang_cdf k (float_of_int k /. 10.) t)
        (Measures.survivability m ~service_level:1. ~time:t))
    [ 1.; 5.; 10.; 20. ]

let test_stages_availability_invariant () =
  (* alternating-renewal availability depends only on the means, so the
     dedicated availability must not change with the stage count *)
  let avail k =
    Measures.availability (Measures.analyze (single_staged_model k))
  in
  let base = avail 1 in
  List.iter
    (fun k -> check_close ~eps:1e-9 (Printf.sprintf "k=%d" k) base (avail k))
    [ 2; 3; 5 ]

let test_stages_less_variance_slower_early () =
  (* an Erlang repair rarely finishes early: at t = mttr/2 the repair
     probability is below the exponential's, at t = 2 mttr above *)
  let p k t =
    let model = single_staged_model k in
    let init = Semantics.disaster_state model ~failed:[ "c" ] in
    Measures.survivability (Measures.analyze ~initial:init model) ~service_level:1. ~time:t
  in
  Alcotest.(check bool) "slower at mttr/2" true (p 4 5. < p 1 5.);
  Alcotest.(check bool) "faster at 2 mttr" true (p 4 20. > p 1 20.)

let test_stages_queue_strategy () =
  (* stages compose with queue scheduling; the scheduler invariants hold *)
  let components =
    [
      Component.make ~name:"a" ~mttf:100. ~mttr:2. ~repair_stages:2 ();
      Component.make ~name:"b" ~mttf:100. ~mttr:2. ();
      Component.make ~name:"c" ~mttf:200. ~mttr:10. ~repair_stages:3 ();
    ]
  in
  let model =
    Model.make ~name:"m" ~components
      ~repair_units:[ Repair.make ~name:"ru" ~strategy:Repair.Frf ~components:[ "a"; "b"; "c" ] () ]
      ~fault_tree:abc_tree ()
  in
  let built = Semantics.build model in
  Array.iter
    (fun st ->
      Array.iteri
        (fun i completed ->
          (* stage progress only on components under repair *)
          if completed > 0 then begin
            Alcotest.(check bool) "staged component is down" false st.Semantics.up.(i);
            Alcotest.(check bool) "staged component in repair" true
              (List.mem i st.Semantics.in_repair.(0))
          end)
        st.Semantics.stage)
    (decoded_states built);
  (* and the two tool-chain paths still agree *)
  let pbuilt = Prism.Builder.build (Prism.Parser.parse_model (To_prism.to_string model)) in
  Alcotest.(check int) "states agree" (Chain.states built.Semantics.chain)
    (Chain.states pbuilt.Prism.Builder.chain);
  Alcotest.(check int) "transitions agree"
    (Chain.transition_count built.Semantics.chain)
    (Chain.transition_count pbuilt.Prism.Builder.chain);
  let m = Measures.analyze model in
  let csl = Csl.Checker.of_built pbuilt in
  (match Csl.Checker.check_string csl {|S=? [ "full_service" ]|} with
  | Csl.Checker.Value v -> check_close ~eps:1e-9 "availability agrees" (Measures.availability m) v
  | Csl.Checker.Satisfied _ -> Alcotest.fail "expected value")

let test_stages_dedicated_two_paths () =
  let model = single_staged_model 3 in
  let built = Semantics.build model in
  let pbuilt = Prism.Builder.build (Prism.Parser.parse_model (To_prism.to_string model)) in
  Alcotest.(check int) "states agree" (Chain.states built.Semantics.chain)
    (Chain.states pbuilt.Prism.Builder.chain)

let test_stages_xml_roundtrip () =
  let model = single_staged_model 5 in
  let model', _ = Xml_io.of_xml (Xml_io.to_xml model) in
  Alcotest.(check int) "stages preserved" 5
    (List.hd model'.Model.components).Component.repair_stages

(* ------------------------------------------------------------------ *)
(* Multiple failure modes *)

let valve ?(minor_mttr = 2.) () =
  Component.make ~name:"valve" ~mttf:1000. ~mttr:50.
    ~extra_modes:
      [ Component.failure_mode ~name:"leak" ~mttf:200. ~mttr:minor_mttr () ]
    ()

let valve_model ?minor_mttr ?(repair_units = []) ?(tree = Fault_tree.basic "valve") () =
  Model.make ~name:"valve_model" ~components:[ valve ?minor_mttr () ] ~repair_units
    ~fault_tree:tree ()

let test_modes_chain_shape () =
  (* up, failed(primary), failed(leak): 3 states *)
  let ded = Repair.make ~name:"r" ~strategy:Repair.Dedicated ~components:[ "valve" ] () in
  let built = Semantics.build (valve_model ~repair_units:[ ded ] ()) in
  Alcotest.(check int) "3 states" 3 (Chain.states built.Semantics.chain)

let test_modes_availability () =
  (* competing exponentials: pi_up = 1 / (1 + l1/m1 + l2/m2) *)
  let ded = Repair.make ~name:"r" ~strategy:Repair.Dedicated ~components:[ "valve" ] () in
  let m = Measures.analyze (valve_model ~repair_units:[ ded ] ()) in
  let l1 = 1. /. 1000. and m1 = 1. /. 50. in
  let l2 = 1. /. 200. and m2 = 1. /. 2. in
  check_close ~eps:1e-9 "availability"
    (1. /. (1. +. (l1 /. m1) +. (l2 /. m2)))
    (Measures.availability m)

let test_modes_specific_literal () =
  (* fault tree over the specific mode: "valve:leak" is down only on leaks *)
  let ded = Repair.make ~name:"r" ~strategy:Repair.Dedicated ~components:[ "valve" ] () in
  let model =
    valve_model ~repair_units:[ ded ] ~tree:(Fault_tree.basic "valve:leak") ()
  in
  let built = Semantics.build model in
  let leak_states = ref 0 and down_states = ref 0 in
  for s = 0 to Chain.states built.Semantics.chain - 1 do
    if Semantics.down_pred built s then incr leak_states;
    if not (Semantics.state built s).Semantics.up.(0) then incr down_states
  done;
  Alcotest.(check int) "one leak state" 1 !leak_states;
  Alcotest.(check int) "two failed states" 2 !down_states;
  (* any-mode literal *)
  let any_model = valve_model ~repair_units:[ ded ] () in
  let built_any = Semantics.build any_model in
  let any_down = ref 0 in
  for s = 0 to Chain.states built_any.Semantics.chain - 1 do
    if Semantics.down_pred built_any s then incr any_down
  done;
  Alcotest.(check int) "both modes down" 2 !any_down

let test_modes_validation () =
  Alcotest.check_raises "unknown mode"
    (Invalid_argument "Model: component valve has no failure mode burst") (fun () ->
      ignore (valve_model ~tree:(Fault_tree.basic "valve:burst") ()));
  Alcotest.check_raises "duplicate mode names"
    (Invalid_argument "Component.make: duplicate failure-mode names") (fun () ->
      ignore
        (Component.make ~name:"x" ~mttf:1. ~mttr:1.
           ~extra_modes:[ Component.failure_mode ~name:"failed" ~mttf:1. ~mttr:1. () ]
           ()))

let test_modes_scheduling_priority () =
  (* FRF must prioritize by the *mode's* repair time: a leak (2 h) beats a
     slow primary repair of another component (50 h) *)
  let other = Component.make ~name:"other" ~mttf:1000. ~mttr:50. () in
  let ru =
    Repair.make ~name:"ru" ~strategy:Repair.Frf ~components:[ "valve"; "other" ] ()
  in
  let model =
    Model.make ~name:"m"
      ~components:[ valve (); other ]
      ~repair_units:[ ru ]
      ~fault_tree:(Fault_tree.and_ [ Fault_tree.basic "valve"; Fault_tree.basic "other" ])
      ()
  in
  (* disaster: other failed (50 h repair) and valve leaking (2 h repair):
     by FRF the leak must be dispatched, 'other' queued *)
  let disaster = Semantics.disaster_state model ~failed:[ "other"; "valve:leak" ] in
  let built = Semantics.build ~initial:disaster model in
  let valve_i = built.Semantics.component_index "valve" in
  Alcotest.(check (list int)) "leak in repair" [ valve_i ] disaster.Semantics.in_repair.(0);
  (* but a primary valve failure (50 h, equal to other) ranks behind the
     earlier-failed other under FCFS tie-breaking *)
  let disaster2 = Semantics.disaster_state model ~failed:[ "other"; "valve" ] in
  Alcotest.(check int) "tie broken by declaration order" valve_i
    (List.hd disaster2.Semantics.in_repair.(0))

let test_modes_mode_cost () =
  let c =
    Component.make ~name:"c" ~mttf:100. ~mttr:1. ~failed_cost:3.
      ~extra_modes:
        [ Component.failure_mode ~name:"major" ~mttf:100. ~mttr:1. ~failed_cost:10. () ]
      ()
  in
  let model =
    Model.make ~name:"m" ~components:[ c ]
      ~repair_units:[ Repair.make ~name:"r" ~strategy:Repair.Dedicated ~components:[ "c" ] () ]
      ~fault_tree:(Fault_tree.basic "c") ()
  in
  let built = Semantics.build model in
  let component_cost, repair_cost = Semantics.cost_structures built in
  let cost = Numeric.Vec.add component_cost repair_cost in
  (* find the major-mode state: cost 10 + 0 idle crews... the dedicated
     crew is busy, idle = 0, so state cost = 10 *)
  let costs = Array.to_list cost |> List.sort compare in
  Alcotest.(check (list (float 1e-9))) "costs" [ 1.; 3.; 10. ] costs

let test_modes_xml_roundtrip () =
  let model = valve_model () in
  let model', _ = Xml_io.of_xml (Xml_io.to_xml model) in
  let c = List.hd model'.Model.components in
  Alcotest.(check int) "extra mode preserved" 1 (List.length c.Component.extra_modes);
  let m = List.hd c.Component.extra_modes in
  Alcotest.(check string) "mode name" "leak" m.Component.fm_name;
  check_close "mode mttr" 2. m.Component.fm_mttr

let test_modes_prism_rejected () =
  match To_prism.translate (valve_model ()) with
  | exception To_prism.Untranslatable _ -> ()
  | _ -> Alcotest.fail "expected Untranslatable"

let test_modes_importance () =
  let ded = Repair.make ~name:"r" ~strategy:Repair.Dedicated ~components:[ "valve" ] () in
  let model =
    valve_model ~repair_units:[ ded ]
      ~tree:(Fault_tree.or_ [ Fault_tree.basic "valve:leak"; Fault_tree.basic "valve:failed" ])
      ()
  in
  let built = Semantics.build model in
  let marginals = Core.Importance.marginal_unavailabilities built in
  Alcotest.(check int) "two literals" 2 (List.length marginals);
  let l1 = 1. /. 1000. and m1 = 1. /. 50. in
  let l2 = 1. /. 200. and m2 = 1. /. 2. in
  let z = 1. +. (l1 /. m1) +. (l2 /. m2) in
  check_close ~eps:1e-9 "leak marginal" (l2 /. m2 /. z) (List.assoc "valve:leak" marginals);
  check_close ~eps:1e-9 "primary marginal" (l1 /. m1 /. z)
    (List.assoc "valve:failed" marginals)

let test_modes_example_file () =
  (* the checked-in example exercises modes + stages + cold spare +
     priority scheduling through the XML front door *)
  let path = "../models/pipeline_modes.xml" in
  if Sys.file_exists path then begin
    let model, measures = Xml_io.load path in
    Alcotest.(check int) "measures" 3 (List.length measures);
    let m = Measures.analyze model in
    let csl = Measures.to_csl_model m in
    List.iter
      (fun { Xml_io.measure_name; query } ->
        match Csl.Checker.check_string csl query with
        | Csl.Checker.Value v ->
            Alcotest.(check bool) (measure_name ^ " in range") true (v >= 0. && v <= 100.)
        | Csl.Checker.Satisfied _ -> ())
      measures;
    (* the cold pump spare cannot fail while pump1 is up *)
    let built = Measures.built m in
    let all_up = 0 in
    let pump2 = built.Semantics.component_index "pump2" in
    let initial_exit = (Ctmc.Chain.exit_rates built.Semantics.chain).(all_up) in
    ignore pump2;
    (* exits from all-up: pump1 (1/500) + valve (3 modes) + controller *)
    check_close ~eps:1e-9 "cold spare dormant"
      ((1. /. 500.) +. (1. /. 4000.) +. (1. /. 800.) +. (1. /. 10000.) +. (1. /. 8000.))
      initial_exit
  end
  else Alcotest.(check pass) "model file not present in sandbox" () ()

(* ------------------------------------------------------------------ *)
(* Importance and hitting-time measures *)

let test_importance_series_parallel () =
  (* abc model under dedicated repair: independent components, closed forms *)
  let ded =
    Repair.make ~name:"ded" ~strategy:Repair.Dedicated ~components:[ "a"; "b"; "c" ] ()
  in
  let built = Semantics.build (abc_model ~repair_units:[ ded ] ()) in
  let qa = 2. /. 102. and qc = 10. /. 210. in
  let marginals = Core.Importance.marginal_unavailabilities built in
  check_close ~eps:1e-9 "marginal a" qa (List.assoc "a" marginals);
  check_close ~eps:1e-9 "marginal c" qc (List.assoc "c" marginals);
  let indices = Core.Importance.analyze built in
  let find name = List.find (fun i -> i.Core.Importance.component = name) indices in
  (* system down = (a and b) or c *)
  let birnbaum_a = (find "a").Core.Importance.birnbaum in
  check_close ~eps:1e-9 "birnbaum a = q_b (1 - q_c)" (qa *. (1. -. qc)) birnbaum_a;
  let birnbaum_c = (find "c").Core.Importance.birnbaum in
  check_close ~eps:1e-9 "birnbaum c = 1 - q_a q_b" (1. -. (qa *. qa)) birnbaum_c;
  (* c is the weak point: higher birnbaum than a *)
  Alcotest.(check bool) "ranking" true (birnbaum_c > birnbaum_a);
  (* fussell-vesely of c: 1 - P(down | c perfect)/P(down) *)
  let baseline = (qa *. qa) +. qc -. (qa *. qa *. qc) in
  check_close ~eps:1e-9 "fussell-vesely c" (1. -. (qa *. qa /. baseline))
    (find "c").Core.Importance.fussell_vesely

let test_importance_bounds () =
  let model = abc_model () in
  check_close "all perfect" 0. (Core.Importance.system_unavailability model ~q:(fun _ -> 0.));
  check_close "all failed" 1. (Core.Importance.system_unavailability model ~q:(fun _ -> 1.));
  match Core.Importance.system_unavailability model ~q:(fun _ -> 2.) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of q > 1"

let test_mean_time_measures () =
  let ded =
    Repair.make ~name:"ded" ~strategy:Repair.Dedicated ~components:[ "a"; "b"; "c" ] ()
  in
  let m = Measures.analyze (abc_model ~repair_units:[ ded ] ()) in
  (* first degradation = first failure of any component: rate 1/100+1/100+1/200 *)
  check_close ~eps:1e-6 "time to degradation" (1. /. 0.025)
    (Measures.mean_time_to_degradation m);
  let loss = Measures.mean_time_to_service_loss m in
  Alcotest.(check bool) "total loss takes longer" true
    (loss > Measures.mean_time_to_degradation m);
  Alcotest.(check bool) "finite" true (Float.is_finite loss)

let test_mixed_disasters () =
  let model = abc_model ~repair_units:[ fcfs_unit () ] () in
  let d_small = [ "a" ] and d_big = [ "a"; "b"; "c" ] in
  let disaster failed = Semantics.disaster_state model ~failed in
  let mixed =
    Measures.rooted (Measures.analyze model)
      [ (0.75, disaster d_big); (0.25, disaster d_small) ]
  in
  let pure failed = Measures.analyze ~initial:(disaster failed) model in
  let level = 0.5 and time = 8. in
  let expected =
    (0.75 *. Measures.survivability (pure d_big) ~service_level:level ~time)
    +. (0.25 *. Measures.survivability (pure d_small) ~service_level:level ~time)
  in
  check_close ~eps:1e-9 "mixture = weighted average" expected
    (Measures.survivability mixed ~service_level:level ~time);
  (* cost measures mix too *)
  let expected_cost =
    (0.75 *. Measures.accumulated_cost (pure d_big) ~time:5.)
    +. (0.25 *. Measures.accumulated_cost (pure d_small) ~time:5.)
  in
  check_close ~eps:1e-9 "mixed cost" expected_cost
    (Measures.accumulated_cost mixed ~time:5.)

(* [rooted] is a view: it shares the parent's rate operator and the
   caches derived from it, whichever session derives them first *)
let test_rooted_shares_operator () =
  let model = abc_model ~repair_units:[ fcfs_unit () ] () in
  let disaster = Semantics.disaster_state model ~failed:[ "a"; "b" ] in
  List.iter
    (fun parent_first ->
      let base = Measures.analyze model in
      let view = Measures.rooted base [ (1., disaster) ] in
      let first, second = if parent_first then (base, view) else (view, base) in
      let rt m = Ctmc.Analysis.rates_transposed (Measures.analysis m) in
      let r1 = rt first in
      Alcotest.(check bool) "one R^T" true (r1 == rt second);
      let chain m = (Measures.built m).Semantics.chain in
      Alcotest.(check bool) "one R" true
        (Chain.rates (chain base) == Chain.rates (chain view));
      let d = Option.get ((Measures.built base).Semantics.state_index disaster) in
      check_close "view starts in the disaster" 1. (Chain.initial (chain view)).(d);
      check_close "parent still starts all-up" 1. (Chain.initial (chain base)).(0))
    [ true; false ]

let test_rooted_rejects () =
  (* without repairs nothing leads back to all-up *)
  let model = abc_model () in
  let m =
    Measures.analyze ~initial:(Semantics.disaster_state model ~failed:[ "a" ]) model
  in
  Alcotest.check_raises "unreachable state"
    (Invalid_argument "Measures.rooted: state not in the chain") (fun () ->
      ignore (Measures.rooted m [ (1., Semantics.all_up_state model) ]));
  (* the weights are checked before any state is looked up *)
  let rejects msg weights =
    Alcotest.check_raises msg (Invalid_argument ("Measures.rooted: " ^ msg))
      (fun () ->
        ignore
          (Measures.rooted m
             (List.map (fun w -> (w, Semantics.all_up_state model)) weights)))
  in
  rejects "weights must be finite and non-negative (got nan)" [ Float.nan; 1. ];
  rejects "empty mixture" []

let test_mixed_disaster_weights () =
  let model = abc_model ~repair_units:[ fcfs_unit () ] () in
  let base = Measures.analyze model in
  let disaster failed = Semantics.disaster_state model ~failed in
  let rejects msg mixture =
    Alcotest.check_raises msg (Invalid_argument ("Measures.rooted: " ^ msg))
      (fun () ->
        ignore
          (Measures.rooted base
             (List.map (fun (w, failed) -> (w, disaster failed)) mixture)))
  in
  rejects "weights must be finite and non-negative (got nan)"
    [ (Float.nan, [ "a" ]); (1., [ "b" ]) ];
  rejects "weights must be finite and non-negative (got -0.5)"
    [ (1., [ "a" ]); (-0.5, [ "b" ]) ];
  rejects "weights must be finite and non-negative (got inf)"
    [ (Float.infinity, [ "a" ]) ];
  rejects "total weight must be finite and positive (got 0)" [ (0., [ "a" ]) ];
  rejects "total weight must be finite and positive (got inf)"
    [ (Float.max_float, [ "a" ]); (Float.max_float, [ "b" ]) ]

let test_two_repair_units_product () =
  (* two independent subsystems with their own repair units in one model:
     availability must factorize *)
  let components =
    [
      comp "a"; comp "b"; (* unit 1, fcfs *)
      comp ~mttf:300. ~mttr:4. "x"; comp ~mttf:300. ~mttr:4. "y"; (* unit 2 *)
    ]
  in
  let ru1 = Repair.make ~name:"ru1" ~strategy:Repair.Fcfs ~components:[ "a"; "b" ] () in
  let ru2 = Repair.make ~name:"ru2" ~strategy:Repair.Frf ~components:[ "x"; "y" ] () in
  let tree names = Fault_tree.and_ (List.map Fault_tree.basic names) in
  let joint =
    Model.make ~name:"joint" ~components ~repair_units:[ ru1; ru2 ]
      ~fault_tree:(Fault_tree.or_ [ tree [ "a"; "b" ]; tree [ "x"; "y" ] ]) ()
  in
  let left =
    Model.make ~name:"left" ~components:[ comp "a"; comp "b" ] ~repair_units:[ ru1 ]
      ~fault_tree:(tree [ "a"; "b" ]) ()
  in
  let right =
    Model.make ~name:"right"
      ~components:[ comp ~mttf:300. ~mttr:4. "x"; comp ~mttf:300. ~mttr:4. "y" ]
      ~repair_units:[ ru2 ] ~fault_tree:(tree [ "x"; "y" ]) ()
  in
  let availability model = Measures.availability (Measures.analyze model) in
  (* full-service availability of independent subsystems factorizes *)
  check_close ~eps:1e-9 "product form" (availability left *. availability right)
    (availability joint);
  (* state space is the product of the sub-spaces *)
  let states model = Chain.states (Semantics.build model).Semantics.chain in
  Alcotest.(check int) "product state space" (states left * states right) (states joint)

(* ------------------------------------------------------------------ *)
(* XML *)

let full_model () =
  abc_model
    ~repair_units:[ fcfs_unit ~crews:2 () ]
    ()

let test_xml_roundtrip () =
  let model = full_model () in
  let measures = [ { Xml_io.measure_name = "avail"; query = "S=? [ \"operational\" ]" } ] in
  let doc = Xml_io.to_xml ~measures model in
  let model', measures' = Xml_io.of_xml doc in
  Alcotest.(check string) "name" model.Model.name model'.Model.name;
  Alcotest.(check int) "components" 3 (List.length model'.Model.components);
  Alcotest.(check bool) "components equal" true
    (List.for_all2 ( = ) model.Model.components model'.Model.components);
  Alcotest.(check bool) "fault tree equal" true
    (model.Model.fault_tree = model'.Model.fault_tree);
  Alcotest.(check int) "measures" 1 (List.length measures');
  (* semantic equality: same availability *)
  check_close ~eps:1e-12 "same availability"
    (Measures.availability (Measures.analyze model))
    (Measures.availability (Measures.analyze model'))

let test_xml_roundtrip_through_text () =
  let model = full_model () in
  let text = Xml_kit.to_string (Xml_io.to_xml model) in
  let model', _ = Xml_io.of_xml (Xml_kit.parse_string text) in
  Alcotest.(check bool) "repair units preserved" true
    (model.Model.repair_units = model'.Model.repair_units)

let test_xml_spare_units () =
  let model =
    Model.make ~name:"m"
      ~components:[ comp "p1"; comp "s1" ]
      ~spare_units:
        [ Spare.make ~name:"smu" ~mode:(Spare.Warm 0.25) ~primaries:[ "p1" ]
            ~spares:[ "s1" ] () ]
      ~fault_tree:(Fault_tree.basic "p1") ()
  in
  let model', _ = Xml_io.of_xml (Xml_io.to_xml model) in
  Alcotest.(check bool) "spare preserved" true (model.Model.spare_units = model'.Model.spare_units)

let test_xml_schema_errors () =
  let bad = Xml_kit.element "wrong" [] [] in
  (match Xml_io.of_xml bad with
  | exception Xml_io.Schema_error _ -> ()
  | _ -> Alcotest.fail "expected schema error");
  let no_ft =
    Xml_kit.element "arcade" [ ("name", "m") ]
      [ Xml_kit.element "components" []
          [ Xml_kit.element "component"
              [ ("name", "a"); ("mttf", "1"); ("mttr", "1") ] [] ] ]
  in
  match Xml_io.of_xml no_ft with
  | exception Xml_io.Schema_error _ -> ()
  | _ -> Alcotest.fail "expected missing fault tree error"

let test_xml_priority_strategy () =
  let ru =
    Repair.make ~name:"r" ~strategy:(Repair.Priority [ "c"; "a"; "b" ])
      ~components:[ "a"; "b"; "c" ] ()
  in
  let model = abc_model ~repair_units:[ ru ] () in
  let model', _ = Xml_io.of_xml (Xml_io.to_xml model) in
  match (List.hd model'.Model.repair_units).Repair.strategy with
  | Repair.Priority order -> Alcotest.(check (list string)) "order" [ "c"; "a"; "b" ] order
  | _ -> Alcotest.fail "expected priority strategy"

let test_degradation_scenario () =
  let ded =
    Repair.make ~name:"ded" ~strategy:Repair.Dedicated ~components:[ "a"; "b"; "c" ] ()
  in
  let m = Measures.analyze (abc_model ~repair_units:[ ded ] ()) in
  match Measures.most_likely_loss_scenario m with
  | Some (events, p) ->
      (* c alone loses service in one jump (rate 1/200 of the total
         1/100+1/100+1/200); losing the a-b pair takes two jumps and is
         far less likely *)
      Alcotest.(check (list string)) "c fails" [ "c fails" ] events;
      check_close ~eps:1e-9 "jump probability" (0.005 /. 0.025) p
  | None -> Alcotest.fail "expected a scenario"

(* ------------------------------------------------------------------ *)
(* DOT export *)

let balanced_braces s =
  let depth = ref 0 and ok = ref true in
  String.iter
    (fun c ->
      if c = '{' then incr depth
      else if c = '}' then begin
        decr depth;
        if !depth < 0 then ok := false
      end)
    s;
  !ok && !depth = 0

let test_export_fault_tree () =
  let dot = Core.Export.fault_tree_to_dot abc_tree in
  Alcotest.(check bool) "digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "balanced" true (balanced_braces dot);
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (fragment ^ " present") true
        (Astring_like.contains dot fragment))
    [ "AND"; "OR"; "basic_a"; "basic_c"; "system_down" ]

let test_export_model () =
  let model = abc_model ~repair_units:[ fcfs_unit ~crews:2 () ] () in
  let dot = Core.Export.model_to_dot model in
  Alcotest.(check bool) "balanced" true (balanced_braces dot);
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (fragment ^ " present") true
        (Astring_like.contains dot fragment))
    [ "cluster_ru_0"; "fcfs, 2 crews"; "comp_a"; "MTTF 100"; "cluster_ft" ]

let test_export_chain () =
  let built = Semantics.build (abc_model ()) in
  let dot = Core.Export.chain_to_dot built in
  Alcotest.(check bool) "balanced" true (balanced_braces dot);
  Alcotest.(check bool) "all-up state" true (Astring_like.contains dot "all up");
  Alcotest.(check bool) "rates on edges" true (Astring_like.contains dot "0.01")

let test_export_chain_too_large () =
  let built =
    Semantics.build (abc_model ~repair_units:[ fcfs_unit () ] ())
  in
  match Core.Export.chain_to_dot ~max_states:3 built with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected size limit"

(* ------------------------------------------------------------------ *)
(* PRISM translation: equivalence with the direct semantics *)

let assert_paths_agree model =
  let direct = Semantics.build model in
  let built = Prism.Builder.build (Prism.Parser.parse_model (To_prism.to_string model)) in
  Alcotest.(check int) "same states"
    (Chain.states direct.Semantics.chain)
    (Chain.states built.Prism.Builder.chain);
  Alcotest.(check int) "same transitions"
    (Chain.transition_count direct.Semantics.chain)
    (Chain.transition_count built.Prism.Builder.chain);
  let csl = Csl.Checker.of_built built in
  let v q =
    match Csl.Checker.check_string csl q with
    | Csl.Checker.Value v -> v
    | Csl.Checker.Satisfied _ -> Alcotest.fail "expected value"
  in
  let m = Measures.analyze model in
  check_close ~eps:1e-9 "availability agrees" (Measures.availability m)
    (v {|S=? [ "full_service" ]|});
  check_close ~eps:1e-9 "cost agrees"
    (Measures.accumulated_cost m ~time:20.)
    (v {|R{"cost"}=? [ C<=20 ]|})

let test_to_prism_fcfs () = assert_paths_agree (abc_model ~repair_units:[ fcfs_unit () ] ())

let test_to_prism_two_crews () =
  assert_paths_agree (abc_model ~repair_units:[ fcfs_unit ~crews:2 () ] ())

let test_to_prism_dedicated () =
  assert_paths_agree
    (abc_model
       ~repair_units:
         [ Repair.make ~name:"ded" ~strategy:Repair.Dedicated ~components:[ "a"; "b"; "c" ] () ]
       ())

let test_to_prism_frf () =
  let components =
    [ comp ~mttr:1. "a"; comp ~mttr:5. "b"; comp ~mttr:1. ~mttf:300. "c" ]
  in
  let model =
    Model.make ~name:"m" ~components
      ~repair_units:
        [ Repair.make ~name:"ru" ~strategy:Repair.Frf ~components:[ "a"; "b"; "c" ] () ]
      ~fault_tree:abc_tree ()
  in
  assert_paths_agree model

let test_to_prism_unrepaired () = assert_paths_agree (abc_model ())

let test_to_prism_disaster_initial () =
  let model = abc_model ~repair_units:[ fcfs_unit () ] () in
  let init = Semantics.disaster_state model ~failed:[ "a"; "b" ] in
  let direct = Measures.analyze ~initial:init model in
  let built =
    Prism.Builder.build (Prism.Parser.parse_model (To_prism.to_string ~initial:init model))
  in
  let csl = Csl.Checker.of_built built in
  let v q =
    match Csl.Checker.check_string csl q with
    | Csl.Checker.Value v -> v
    | Csl.Checker.Satisfied _ -> Alcotest.fail "expected value"
  in
  check_close ~eps:1e-9 "survivability agrees"
    (Measures.survivability direct ~service_level:1. ~time:10.)
    (v {|P=? [ true U<=10 "full_service" ]|})

let test_to_prism_rejects_preemptive () =
  let model = abc_model ~repair_units:[ fcfs_unit ~preemptive:true () ] () in
  match To_prism.translate model with
  | exception To_prism.Untranslatable _ -> ()
  | _ -> Alcotest.fail "expected Untranslatable"

let test_to_prism_rejects_cold_spare () =
  let model =
    Model.make ~name:"m"
      ~components:[ comp "p1"; comp "s1" ]
      ~spare_units:
        [ Spare.make ~name:"smu" ~mode:Spare.Cold ~primaries:[ "p1" ] ~spares:[ "s1" ] () ]
      ~fault_tree:(Fault_tree.basic "p1") ()
  in
  match To_prism.translate model with
  | exception To_prism.Untranslatable _ -> ()
  | _ -> Alcotest.fail "expected Untranslatable"

let test_sanitize () =
  Alcotest.(check string) "dashes" "a_b" (To_prism.sanitize "a-b");
  Alcotest.(check string) "leading digit" "c_1x" (To_prism.sanitize "1x");
  Alcotest.(check string) "empty" "x" (To_prism.sanitize "")

(* the generated text must parse as PRISM (sanity of the printer output) *)
let test_to_prism_output_parses () =
  let model = abc_model ~repair_units:[ fcfs_unit ~crews:2 () ] () in
  let text = To_prism.to_string model in
  let parsed = Prism.Parser.parse_model text in
  Alcotest.(check bool) "has labels" true (List.length parsed.Prism.Ast.labels >= 3);
  Alcotest.(check int) "three reward structures" 3 (List.length parsed.Prism.Ast.rewards)

(* ------------------------------------------------------------------ *)
(* Property tests over random Arcade models *)

let random_model_gen =
  QCheck.Gen.(
    let* n = int_range 2 5 in
    let names = List.init n (fun i -> Printf.sprintf "c%d" i) in
    let* mttfs = list_size (return n) (float_range 50. 5000.) in
    let* mttrs = list_size (return n) (float_range 0.5 100.) in
    let* stages = list_size (return n) (int_range 1 2) in
    let components =
      List.map2
        (fun name ((mttf, mttr), repair_stages) ->
          Component.make ~name ~mttf ~mttr ~repair_stages ())
        names
        (List.combine (List.combine mttfs mttrs) stages)
    in
    let* strategy = oneofl [ Repair.Dedicated; Repair.Fcfs; Repair.Frf; Repair.Fff ] in
    let* crews = int_range 1 2 in
    let ru = Repair.make ~name:"ru" ~strategy ~crews ~components:names () in
    (* random monotone fault tree over the components *)
    let* tree =
      let basic_gen = map (fun i -> Fault_tree.basic (Printf.sprintf "c%d" (i mod n))) (int_range 0 (n - 1)) in
      let* shape = int_range 0 2 in
      match shape with
      | 0 -> return (Fault_tree.or_ (List.map Fault_tree.basic names))
      | 1 ->
          let* a = basic_gen and* b = basic_gen in
          return (Fault_tree.or_ [ Fault_tree.and_ [ a; b ]; List.hd (List.map Fault_tree.basic names) ])
      | _ ->
          let* k = int_range 1 n in
          return (Fault_tree.kofn k (List.map Fault_tree.basic names))
    in
    return (Model.make ~name:"random" ~components ~repair_units:[ ru ] ~fault_tree:tree ()))

let prop_two_paths_agree =
  QCheck.Test.make ~count:40 ~name:"random models: semantics = prism translation"
    (QCheck.make random_model_gen)
    (fun model ->
      let direct = Semantics.build model in
      let built =
        Prism.Builder.build (Prism.Parser.parse_model (To_prism.to_string model))
      in
      Chain.states direct.Semantics.chain = Chain.states built.Prism.Builder.chain
      && Chain.transition_count direct.Semantics.chain
         = Chain.transition_count built.Prism.Builder.chain
      &&
      let m = Measures.analyze model in
      let csl = Csl.Checker.of_built built in
      match Csl.Checker.check_string csl {|S=? [ "full_service" ]|} with
      | Csl.Checker.Value v -> Float.abs (v -. Measures.availability m) < 1e-8
      | Csl.Checker.Satisfied _ -> false)

let prop_measures_sane =
  QCheck.Test.make ~count:40 ~name:"random models: measures are sane"
    (QCheck.make random_model_gen)
    (fun model ->
      let m = Measures.analyze model in
      let a = Measures.availability m in
      let any = Measures.any_service_availability m in
      let r10 = Measures.reliability m ~time:10. in
      let r100 = Measures.reliability m ~time:100. in
      a >= -1e-9 && a <= 1. +. 1e-9
      && any >= a -. 1e-9 (* some service is implied by full service *)
      && r100 <= r10 +. 1e-9
      && Measures.accumulated_cost m ~time:5. >= -1e-9)

let prop_survivability_monotone =
  QCheck.Test.make ~count:25 ~name:"random models: survivability monotone in time"
    (QCheck.make random_model_gen)
    (fun model ->
      (* fail the first two components *)
      let failed =
        match Model.component_names model with
        | a :: b :: _ -> [ a; b ]
        | other -> other
      in
      let init = Semantics.disaster_state model ~failed in
      let m = Measures.analyze ~initial:init model in
      let levels = Model.service_levels model in
      List.for_all
        (fun level ->
          level <= 0.
          ||
          let s1 = Measures.survivability m ~service_level:level ~time:2. in
          let s2 = Measures.survivability m ~service_level:level ~time:20. in
          s1 <= s2 +. 1e-9)
        levels)

(* Survivability curves over an absorbing-row mask against the absorbed
   chain: [Chain_oracle.absorbing], its [Chain.uniformized] P, and a plain
   forward loop with the Fox-Glynn weights of its own rate *)
let absorbed_psi_mass chain ~psi t =
  let absorbed = Chain_oracle.absorbing chain ~pred:psi in
  let lambda, p = Chain.uniformized absorbed in
  let { Numeric.Fox_glynn.left; right; weights; _ } =
    Numeric.Fox_glynn.compute ~epsilon:1e-12 (lambda *. t)
  in
  let acc = Array.make (Chain.states chain) 0. in
  let v = ref (Chain.initial chain) in
  for k = 0 to right do
    if k >= left then
      Array.iteri (fun i x -> acc.(i) <- acc.(i) +. (weights.(k - left) *. x)) !v;
    if k < right then v := Numeric.Sparse.vec_mul !v p
  done;
  let mass = ref 0. in
  Array.iteri (fun s x -> if psi s then mass := !mass +. x) acc;
  !mass

let prop_survivability_matches_absorbed =
  QCheck.Test.make ~count:25
    ~name:"random models: masked survivability = absorbed chain"
    (QCheck.make random_model_gen)
    (fun model ->
      let failed =
        match Model.component_names model with
        | a :: b :: _ -> [ a; b ]
        | other -> other
      in
      let m =
        Measures.analyze ~initial:(Semantics.disaster_state model ~failed) model
      in
      let chain = (Measures.built m).Semantics.chain in
      let times = [ 0.5; 4.; 30. ] in
      List.for_all
        (fun level ->
          let psi = Semantics.service_at_least (Measures.built m) level in
          List.for_all2
            (fun t (_, p) -> Float.abs (p -. absorbed_psi_mass chain ~psi t) <= 1e-12)
            times
            (Measures.survivability_curve m ~service_level:level ~times))
        (Model.service_levels model))

(* A view rooted at a random state against a build from that state. The
   two agree whenever the state reaches back to the root's whole state
   space (equal state counts); only the state numbering differs. *)
(* lint_model lints the model's XML document through the one reader: the
   same findings as linting the written file, positions aside. *)
let prop_lint_model_is_lint_of_xml =
  QCheck.Test.make ~count:40 ~name:"random models: lint_model = lint of its XML"
    (QCheck.make random_model_gen)
    (fun model ->
      let findings diags =
        List.sort compare
          (List.map
             (fun d -> Lint.Diagnostic.(d.code, d.subject, d.message))
             diags)
      in
      findings (Lint.lint_model model)
      = findings (Lint.lint_string (Xml_kit.to_string (Xml_io.to_xml model))))

let prop_rooted_matches_rebuild =
  QCheck.Test.make ~count:25 ~name:"random models: rooted view = rebuild from the state"
    (QCheck.make QCheck.Gen.(pair random_model_gen nat))
    (fun (model, k) ->
      let base = Measures.analyze model in
      let n = Chain.states (Measures.built base).Semantics.chain in
      let state = Semantics.state (Measures.built base) (k mod n) in
      let view = Measures.rooted base [ (1., state) ] in
      let rebuilt = Measures.analyze ~initial:state model in
      Chain.states (Measures.built rebuilt).Semantics.chain <> n
      ||
      let times = [ 0.5; 4.; 30. ] in
      let same a b =
        List.for_all2
          (fun (_, x) (_, y) ->
            Float.abs (x -. y)
            <= 1e-12 *. Float.max 1. (Float.max (Float.abs x) (Float.abs y)))
          a b
      in
      let vi, va = Measures.cost_curves view ~times in
      let ri, ra = Measures.cost_curves rebuilt ~times in
      same vi ri && same va ra
      && List.for_all
           (fun level ->
             same
               (Measures.survivability_curve view ~service_level:level ~times)
               (Measures.survivability_curve rebuilt ~service_level:level ~times))
           (Model.service_levels model))

(* ------------------------------------------------------------------ *)
(* Golden chains: the state numbering and every CSR entry, bit for bit *)

(* FNV-1a over each row's entries (column, value bits) and the running
   entry count after each row, i.e. over row_ptr, col_idx and values *)
let chain_digest chain =
  let rates = Chain.rates chain in
  let buf = Buffer.create 4096 in
  let nnz = ref 0 in
  Buffer.add_int64_le buf 0L;
  for i = 0 to Numeric.Sparse.rows rates - 1 do
    Numeric.Sparse.iter_row rates i (fun j x ->
        incr nnz;
        Buffer.add_int32_le buf (Int32.of_int j);
        Buffer.add_int64_le buf (Int64.bits_of_float x));
    Buffer.add_int64_le buf (Int64.of_int !nnz)
  done;
  Ctmc.Analysis.fnv1a64 (Buffer.contents buf)

(* FNV-1a over the decoded state sequence *)
let states_digest built =
  let buf = Buffer.create 4096 in
  let ints a =
    Array.iter
      (fun k ->
        Buffer.add_string buf (string_of_int k);
        Buffer.add_char buf ';')
      a
  in
  let lists a =
    Array.iter
      (fun l ->
        Buffer.add_char buf '[';
        List.iter
          (fun i ->
            Buffer.add_string buf (string_of_int i);
            Buffer.add_char buf ',')
          l)
      a
  in
  for s = 0 to Chain.states built.Semantics.chain - 1 do
    let st = Semantics.state built s in
    Array.iter (fun b -> Buffer.add_char buf (if b then 'u' else 'd')) st.Semantics.up;
    lists st.Semantics.in_repair;
    lists st.Semantics.queue;
    ints st.Semantics.stage;
    ints st.Semantics.failed_mode;
    Buffer.add_char buf '\n'
  done;
  Ctmc.Analysis.fnv1a64 (Buffer.contents buf)

let check_golden label (states, transitions, chain_hash, states_hash) built =
  let chain = built.Semantics.chain in
  Alcotest.(check int) (label ^ " states") states (Chain.states chain);
  Alcotest.(check int) (label ^ " transitions") transitions
    (Chain.transition_count chain);
  Alcotest.(check int64) (label ^ " chain digest") chain_hash (chain_digest chain);
  Alcotest.(check int64) (label ^ " state digest") states_hash (states_digest built)

(* The reduced chains themselves, pinned: per symmetric build its state
   count, the CSR digest (state numbering, row_ptr, col_idx, value bits)
   and the full (states, transitions) counted by orbits. *)
let check_symmetric label (blocks, chain_hash, full_size) built =
  let chain = built.Semantics.chain in
  Alcotest.(check int) (label ^ " blocks") blocks (Chain.states chain);
  Alcotest.(check int64) (label ^ " chain digest") chain_hash (chain_digest chain);
  Alcotest.(check (pair int int)) (label ^ " full size") full_size
    built.Semantics.full_size

(* Every shipped model, explored from the all-up state; last, the block
   count and CSR digest of its symmetric build. *)
let golden_models =
  [
    ( "line1_ded.xml", 2048, 22528, -3504436808075133679L, 4434662310564172501L,
      (160, -6661729589061863627L) );
    ( "line1_fff-1.xml", 111809, 469007, -3231262100839475136L, 7758544712459425206L,
      (449, -8741782825656586697L) );
    ( "line1_fff-2.xml", 178606, 895331, 2029478207367730564L, 305686819690012978L,
      (727, -4702453214210663221L) );
    ( "line1_frf-1.xml", 111809, 469007, -6344368156931673848L, 1574032655637831646L,
      (449, 7109800774823818879L) );
    ( "line1_frf-2.xml", 178606, 895331, -1536654179314587818L, 1150005812857804834L,
      (727, -3396372942887622463L) );
    ( "line2_ded.xml", 512, 4608, 5915470442944404219L, -5577991532869338383L,
      (96, 6747123209826479447L) );
    ( "line2_fff-1.xml", 8129, 32029, -496850197430132548L, 8750228025740787460L,
      (257, -3740383604437060729L) );
    ( "line2_fff-2.xml", 11956, 56013, -4415164702190698263L, 2611190669274177322L,
      (387, -53631508781882556L) );
    ( "line2_frf-1.xml", 8129, 32029, -7558827746619601156L, -736954301202559172L,
      (257, -5564845808382384716L) );
    ( "line2_frf-2.xml", 11956, 56013, -1860065632700741737L, 260273729665080122L,
      (387, -2035490925269274665L) );
    ( "pipeline_modes.xml", 169, 451, -7526181682802337721L, 8786470014261349387L,
      (169, -7526181682802337721L) );
    ( "substation.xml", 3969, 19529, -3958245545381277830L, 2836014195695590384L,
      (649, -1670126175742462868L) );
  ]

let test_golden_models () =
  List.iter
    (fun (file, states, transitions, chain_hash, states_hash, (blocks, sym_hash)) ->
      let model, _ = Xml_io.load ("../models/" ^ file) in
      check_golden file
        (states, transitions, chain_hash, states_hash)
        (Semantics.build model);
      check_symmetric (file ^ " symmetric")
        (blocks, sym_hash, (states, transitions))
        (Semantics.build ~symmetric:true model))
    golden_models

(* The paper's Table 1: states and transitions per line and strategy. *)
let golden_table1 =
  [
    ("line1", "DED", 2048, 22528, -3504436808075133679L, 4434662310564172501L);
    ("line1", "FRF-1", 111809, 469007, -6344368156931673848L, 1574032655637831646L);
    ("line1", "FRF-2", 178606, 895331, -1536654179314587818L, 1150005812857804834L);
    ("line1", "FFF-1", 111809, 469007, -3231262100839475136L, 7758544712459425206L);
    ("line1", "FFF-2", 178606, 895331, 2029478207367730564L, 305686819690012978L);
    ("line2", "DED", 512, 4608, 5915470442944404219L, -5577991532869338383L);
    ("line2", "FRF-1", 8129, 32029, -7558827746619601156L, -736954301202559172L);
    ("line2", "FRF-2", 11956, 56013, -1860065632700741737L, 260273729665080122L);
    ("line2", "FFF-1", 8129, 32029, -496850197430132548L, 8750228025740787460L);
    ("line2", "FFF-2", 11956, 56013, -4415164702190698263L, 2611190669274177322L);
  ]

let test_golden_table1 () =
  let open Watertreatment in
  List.iter
    (fun (line, config, states, transitions, chain_hash, states_hash) ->
      let line = if line = "line1" then Facility.Line1 else Facility.Line2 in
      let config =
        List.find (fun c -> Facility.config_name c = config) Facility.paper_configs
      in
      let label = Facility.line_name line ^ " " ^ Facility.config_name config in
      check_golden label
        (states, transitions, chain_hash, states_hash)
        (Semantics.build (Facility.line_model line config)))
    golden_table1

(* The symmetric builds of Table 1: the full (states, transitions) counted
   by orbits, the block counts of the exact quotient under
   interchangeable tanks, filters and pumps, and the reduced chains' CSR
   digests, in [Facility.paper_configs] order. *)
let golden_table1_blocks =
  [
    ( "line1",
      [
        (160, -6661729589061863627L);
        (449, 7109800774823818879L);
        (727, -3396372942887622463L);
        (449, -8741782825656586697L);
        (727, -4702453214210663221L);
      ] );
    ( "line2",
      [
        (96, 6747123209826479447L);
        (257, -5564845808382384716L);
        (387, -2035490925269274665L);
        (257, -3740383604437060729L);
        (387, -53631508781882556L);
      ] );
  ]

let test_golden_table1_symmetric () =
  let open Watertreatment in
  List.iter
    (fun (line, config, states, transitions, _, _) ->
      let line_t = if line = "line1" then Facility.Line1 else Facility.Line2 in
      let k, config =
        let rec find k = function
          | c :: rest ->
              if Facility.config_name c = config then (k, c) else find (k + 1) rest
          | [] -> Alcotest.fail config
        in
        find 0 Facility.paper_configs
      in
      let label = line ^ " " ^ Facility.config_name config ^ " symmetric" in
      let built =
        Semantics.build ~symmetric:true (Facility.line_model line_t config)
      in
      let blocks, chain_hash = List.nth (List.assoc line golden_table1_blocks) k in
      check_symmetric label (blocks, chain_hash, (states, transitions)) built)
    golden_table1

(* A reduced build refuses every observation that tells the members of a
   group apart, and answers the invariant ones. *)
let test_reduced_observations () =
  let open Watertreatment in
  let model = Facility.line_model Facility.Line2 Facility.ded in
  let m = Measures.analyze ~symmetric:true model in
  let built = Measures.built m in
  Alcotest.(check (list (list string))) "groups"
    [ [ "st1"; "st2"; "st3" ]; [ "sf1"; "sf2" ]; [ "pump1"; "pump2"; "pump3" ] ]
    (Semantics.symmetry_groups built);
  let refused what f =
    match f () with
    | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  refused "state" (fun () -> ignore (Semantics.state built 0));
  refused "literal_pred" (fun () ->
      let (_ : int -> bool) = Semantics.literal_pred built "pump1" in
      ());
  refused "pump1_failed query" (fun () ->
      ignore
        (Csl.Checker.check_string (Measures.to_csl_model m)
           {|P=? [ true U<=10 "pump1_failed" ]|}));
  (* the reservoir has no twin: its observations stay *)
  Alcotest.(check bool) "res literal" false (Semantics.literal_pred built "res" 0);
  check_close ~eps:1e-12 "availability" 0.8186317
    (Float.round (Measures.availability m *. 1e7) /. 1e7);
  (* a session routes to the quotient exactly the steady queries whose
     labels every orbit member agrees on *)
  Alcotest.(check (list (list string))) "groups without a build"
    (Semantics.symmetry_groups built) (Semantics.interchangeable model);
  let session = Measures.Session.create model in
  let route q = Measures.Session.route session (Csl.Parser.parse q) in
  Alcotest.(check (list bool)) "routed to the quotient"
    [ true; true; true; true; false; false; false ]
    (List.map
       (fun q -> route q = Measures.Session.Symmetric)
       [
         {|S=? [ "full_service" ]|};
         {|S>0.5 [ !"down" & "res_failed" ]|};
         {|R{"cost"}=? [ S ]|};
         {|S=? [ "no_such_label" ]|};
         {|S=? [ "sl_ge_0" | "pump1_failed" ]|};
         {|P=? [ true U<=10 "down" ]|};
         {|R{"cost"}=? [ C<=10 ]|};
       ]);
  (* a full build keeps every observation *)
  let full = Semantics.build model in
  Alcotest.(check (list (list string))) "full build" [] (Semantics.symmetry_groups full);
  Alcotest.(check bool) "pump1 literal" false (Semantics.literal_pred full "pump1" 0)

(* A session asked only steady-state queries over group-invariant labels
   builds the symmetric chain alone; the first transient query adds the
   full one, and the full chain's size reads the same off either. *)
let test_session_steady_builds () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) @@ fun () ->
  let module S = Measures.Session in
  let count name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let builds () = (count "measures.builds.symmetric", count "measures.builds.full") in
  let model, _ = Xml_io.load "../models/line2_frf-1.xml" in
  let s = S.create model in
  let ask text =
    let q = Csl.Parser.parse text in
    ignore (Csl.Checker.check (Measures.to_csl_model (S.chain s (S.route s q))) q)
  in
  let sym0, full0 = builds () in
  List.iter ask
    [
      {|S=? [ "full_service" ]|};
      {|S=? [ "operational" & !"sl_ge_0" ]|};
      {|R{"cost"}=? [ S ]|};
      {|R{"repair_cost"}=? [ S ]|};
      {|S<0.5 [ "down" ]|};
    ];
  let sym1, full1 = builds () in
  Alcotest.(check (pair int int)) "steady only: one symmetric build" (1, 0)
    (sym1 - sym0, full1 - full0);
  Alcotest.(check (list string)) "built" [ "symmetric" ]
    (List.map (fun (k, _) -> S.kind_name k) (S.built s));
  Alcotest.(check int) "full size from the orbits" 8129 (S.full_size s);
  ask {|P=? [ true U<=10 !"full_service" ]|};
  ask {|S=? [ "pump1_failed" ]|};
  let sym2, full2 = builds () in
  Alcotest.(check (pair int int)) "then one full build" (1, 1)
    (sym2 - sym0, full2 - full0);
  Alcotest.(check int) "full size from the full chain" 8129 (S.full_size s)

(* Disaster starts: pre-filled queues and in-repair lists, spares, failure
   modes and Erlang stages in the initial state; last, the symmetric
   build from the same start, whose initial state is canonicalized whole. *)
let golden_disasters =
  [
    ( "line2/DED", 512, 4608, -8261682764022375373L, -3631221149959028203L,
      (96, -4326997601908116917L) );
    ( "line2/FRF-1", 8129, 32029, -3396668626836126662L, -8352572404757432988L,
      (257, -1153454682968179532L) );
    ( "line2/FRF-2", 11956, 56013, 5071531781461327558L, 6565840544379870082L,
      (387, 8268689693168417385L) );
    ( "line2/FFF-1", 8129, 32029, -4436330140577640325L, 8750119238793964540L,
      (257, -4174450343393578381L) );
    ( "line2/FFF-2", 11956, 56013, 5280865307625737208L, -314980081578164382L,
      (387, 2932853581911392796L) );
    ( "substation/storm", 3969, 19529, 1376133206687322898L, -1620213431620399384L,
      (649, -2937484716208711569L) );
  ]

let test_golden_disasters () =
  let open Watertreatment in
  List.iter
    (fun (label, states, transitions, chain_hash, states_hash, (blocks, sym_hash)) ->
      let model, failed =
        match String.split_on_char '/' label with
        | [ "substation"; _ ] -> (Substation.model, Substation.storm)
        | [ _; config ] ->
            let config =
              List.find (fun c -> Facility.config_name c = config) Facility.paper_configs
            in
            (Facility.line_model Facility.Line2 config, Facility.disaster1 Facility.Line2)
        | _ -> Alcotest.fail label
      in
      let initial = Semantics.disaster_state model ~failed in
      let built = Semantics.build ~initial model in
      check_golden label (states, transitions, chain_hash, states_hash) built;
      Alcotest.(check (option int)) (label ^ " initial index") (Some 0)
        (built.Semantics.state_index initial);
      let sym = Semantics.build ~symmetric:true ~initial model in
      check_symmetric (label ^ " symmetric")
        (blocks, sym_hash, (states, transitions))
        sym;
      Alcotest.(check (option int)) (label ^ " symmetric initial index") (Some 0)
        (sym.Semantics.state_index initial))
    golden_disasters

(* The compiled trees against Fault_tree's own evaluators on the decoded
   states, bit for bit, on models with failure modes and spares. *)
let test_observations_match_fault_tree () =
  List.iter
    (fun file ->
      let model, _ = Xml_io.load ("../models/" ^ file) in
      let built = Semantics.build model in
      let service_tree = Model.service_tree model in
      let literals = Fault_tree.basics model.Model.fault_tree in
      let down = Semantics.down_pred built
      and level = Semantics.service_level built in
      let preds = List.map (fun l -> (l, Semantics.literal_pred built l)) literals in
      Array.iteri
        (fun s st ->
          let truth literal =
            let name, mode = Model.split_literal literal in
            let i = built.Semantics.component_index name in
            (not st.Semantics.up.(i))
            && match mode with
               | None -> true
               | Some mn ->
                   (List.nth (Component.modes (Model.component model name))
                      st.Semantics.failed_mode.(i)).Component.fm_name = mn
          in
          List.iter
            (fun (l, pred) -> Alcotest.(check bool) (file ^ " " ^ l) (truth l) (pred s))
            preds;
          Alcotest.(check bool) (file ^ " down") (Fault_tree.eval model.Model.fault_tree truth)
            (down s);
          let reference =
            Fault_tree.eval_quantitative service_tree (fun l -> if truth l then 0. else 1.)
          in
          Alcotest.(check int64) (file ^ " service level")
            (Int64.bits_of_float reference) (Int64.bits_of_float (level s)))
        (decoded_states built))
    [ "pipeline_modes.xml"; "substation.xml"; "line2_frf-2.xml" ]

(* ------------------------------------------------------------------ *)
(* Symmetric builds against full builds on generated models *)

(* Deliberately symmetric models: 1-3 groups of 2-4 replicas (at most five
   in all, to keep the full chain small) plus 0-1 singletons; each group
   with its own rates, Erlang stages, spare unit (none, hot or warm) and
   gate (AND, OR or K-of-N over its replicas), one group or singleton with
   an extra failure mode. One repair unit holds everything, or a second
   unit takes the last group or the singleton; the second unit is
   dedicated or FCFS/FRF with one crew, often preemptive, so that a group
   queues behind a busy crew there. [spoil] gives every group a warm or
   cold spare unit, or switches the units to Priority (each group's ranks
   adjacent), which groups only where that is exact. *)
let symmetric_model_gen ~spoil =
  QCheck.Gen.(
    let* sizes = list_size (int_range 1 3) (int_range 2 4) in
    let sizes =
      List.rev
        (snd
           (List.fold_left
              (fun (left, acc) k ->
                if left < 2 then (left, acc) else (left - min k left, min k left :: acc))
              (5, []) sizes))
    in
    let* singles = int_range 0 1 in
    let* strategy =
      oneofl [ `Dedicated; `Fcfs; `Frf; `Fff; `Priority ]
    in
    let* preemptive = bool and* crews = int_range 1 2 in
    let* kinds =
      flatten_l
        (List.map
           (fun k ->
             let* mttf = float_range 50. 2000. and* mttr = float_range 0.5 50. in
             let* stages = int_range 1 2 in
             let* spare =
               if spoil then oneofl [ Spare.Warm 0.5; Spare.Cold ] >|= Option.some
               else oneofl [ None; Some Spare.Hot; Some (Spare.Warm 0.5) ]
             in
             let* gate = int_range 0 (k + 1) in
             return (k, mttf, mttr, stages, spare, gate))
           (sizes @ List.init singles (fun _ -> 1)))
    in
    let* extra = int_range 0 (List.length kinds) in
    let* spoil_by_priority = bool in
    let* second = bool
    and* strategy2 = oneofl [ `Dedicated; `Fcfs; `Frf ]
    and* preemptive2 = frequency [ (2, return true); (1, return false) ] in
    let strategy = if spoil && spoil_by_priority then `Priority else strategy in
    let strategy2 = if spoil && spoil_by_priority then `Priority else strategy2 in
    let groups =
      List.mapi
        (fun g (k, mttf, mttr, stages, spare, gate) ->
          let names = List.init k (fun r -> Printf.sprintf "g%d_%d" g r) in
          let extra_modes =
            if g = extra then
              [ Component.failure_mode ~name:"leak" ~mttf:(2. *. mttf) ~mttr:(mttr /. 2.) () ]
            else []
          in
          let comps =
            List.map
              (fun name ->
                Component.make ~name ~mttf ~mttr ~repair_stages:stages ~extra_modes ())
              names
          in
          let basics = List.map Fault_tree.basic names in
          let tree =
            match (k, gate) with
            | 1, _ -> List.hd basics
            | _, 0 -> Fault_tree.and_ basics
            | _, 1 -> Fault_tree.or_ basics
            | _, k' -> Fault_tree.kofn (min k (k' - 1)) basics
          in
          let spare_unit =
            match spare with
            | Some mode when k > 1 ->
                let rec split = function
                  | [ last ] -> ([], [ last ])
                  | x :: rest ->
                      let p, s = split rest in
                      (x :: p, s)
                  | [] -> ([], [])
                in
                let primaries, spares = split names in
                Some (Spare.make ~name:(Printf.sprintf "smu%d" g) ~mode ~primaries ~spares ())
            | _ -> None
          in
          (comps, tree, spare_unit))
        kinds
    in
    let components = List.concat_map (fun (c, _, _) -> c) groups in
    let names_of groups =
      List.concat_map (fun (c, _, _) -> List.map (fun c -> c.Component.name) c) groups
    in
    let unit name strategy ~crews ~preemptive groups =
      let names = names_of groups in
      let strategy =
        match strategy with
        | `Dedicated -> Repair.Dedicated
        | `Fcfs -> Repair.Fcfs
        | `Frf -> Repair.Frf
        | `Fff -> Repair.Fff
        | `Priority -> Repair.Priority names
      in
      let preemptive = preemptive && strategy <> Repair.Dedicated in
      Repair.make ~name ~strategy ~crews ~preemptive ~components:names ()
    in
    let repair_units =
      match List.rev groups with
      | last :: (_ :: _ as rest) when second ->
          [
            unit "ru" strategy ~crews ~preemptive (List.rev rest);
            unit "ru2" strategy2 ~crews:1 ~preemptive:preemptive2 [ last ];
          ]
      | _ -> [ unit "ru" strategy ~crews ~preemptive groups ]
    in
    return
      (Model.make ~name:"symmetric" ~components ~repair_units
         ~spare_units:(List.filter_map (fun (_, _, s) -> s) groups)
         ~fault_tree:(Fault_tree.or_ (List.map (fun (_, t, _) -> t) groups))
         ()))

let print_model m = Xml_kit.to_string (Xml_io.to_xml m)

(* Both kinds of generated model: with [spoil] the groups sit in warm or
   cold spare units or in Priority units with adjacent ranks, which
   group detection merges where that is exact. *)
let any_symmetric_model_gen =
  QCheck.Gen.(bool >>= fun spoil -> symmetric_model_gen ~spoil)

let arb_symmetric = QCheck.make ~print:print_model any_symmetric_model_gen

let prop_symmetric_counts =
  QCheck.Test.make ~count:80 ~name:"symmetric models: orbit counts = full build"
    arb_symmetric
    (fun model ->
      let full = Semantics.build model in
      let sym = Semantics.build ~symmetric:true model in
      sym.Semantics.full_size
      = (Chain.states full.Semantics.chain, Chain.transition_count full.Semantics.chain)
      && Chain.states sym.Semantics.chain <= Chain.states full.Semantics.chain)

let close_rel a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b) +. 1e-15

(* for transient values: 1e-9 relative, above an absolute floor of two
   Fox-Glynn truncation budgets (1e-12 each): the reduced chain
   uniformizes at its own rate, so a transient value near zero differs by
   truncation noise alone *)
let quotient_close a b =
  Float.abs (a -. b) <= (1e-9 *. Float.max (Float.abs a) (Float.abs b)) +. 2e-12

(* long-run measures whose labels and rewards every orbit member agrees
   on *)
let invariant_steady m =
  [
    Measures.availability m;
    Measures.any_service_availability m;
    Measures.steady_state_cost m;
  ]

(* the transient ones *)
let invariant_transient m =
  let times = [ 0.5; 4.; 30. ] in
  let values curve = List.map snd curve in
  let inst, acc = Measures.cost_curves m ~times in
  let built = Measures.built m in
  let full_service = Semantics.service_at_least built 1. in
  let pi =
    Ctmc.Transient.distribution ~analysis:(Measures.analysis m)
      built.Semantics.chain 4.
  in
  let availability_at_4 =
    Array.fold_left ( +. ) 0. (Array.mapi (fun s p -> if full_service s then p else 0.) pi)
  in
  (availability_at_4 :: values (Measures.reliability_curve m ~times))
  @ values inst @ values acc

let prop_symmetric_measures =
  QCheck.Test.make ~count:40 ~name:"symmetric models: reduced measures = full"
    arb_symmetric
    (fun model ->
      let full = Measures.analyze model in
      let sym = Measures.analyze ~symmetric:true model in
      (* the whole first group fails *)
      let failed =
        List.filter
          (fun n -> String.length n > 3 && String.sub n 0 3 = "g0_")
          (Model.component_names model)
      in
      let disaster = Semantics.disaster_state model ~failed in
      let surv m =
        let view = Measures.rooted m [ (1., disaster) ] in
        List.map
          (fun level -> Measures.survivability view ~service_level:level ~time:5.)
          (Model.service_levels model)
      in
      List.for_all2 close_rel (invariant_steady full) (invariant_steady sym)
      && List.for_all2 close_rel (surv full) (surv sym)
      && List.for_all2 quotient_close (invariant_transient full) (invariant_transient sym))

(* Queries over every label and reward of a model's CSL vocabulary, steady
   and transient, with a grouped component's literal among them when the
   model has groups. *)
let session_queries model =
  let levels = List.mapi (fun i _ -> Measures.level_label i) (Model.service_levels model) in
  let literals =
    List.concat_map
      (fun c -> List.map fst (Measures.component_labels c))
      model.Model.components
  in
  let labels = Measures.tree_labels @ levels @ literals in
  List.concat_map
    (fun l ->
      [ Printf.sprintf "S=? [ \"%s\" ]" l; Printf.sprintf "P=? [ true U<=5 \"%s\" ]" l ])
    labels
  @ List.concat_map
      (fun r ->
        [ Printf.sprintf "R{\"%s\"}=? [ S ]" r; Printf.sprintf "R{\"%s\"}=? [ C<=5 ]" r ])
      Measures.reward_names
  @ [ "S=? [ !\"down\" & \"full_service\" ]"; "S>0.5 [ \"operational\" | \"down\" ]" ]

(* a model and some of its components failed at the start *)
let disaster_model_gen =
  QCheck.Gen.(
    let* model = any_symmetric_model_gen in
    let names = Model.component_names model in
    let* fails = list_repeat (List.length names) (float_bound_inclusive 1.) in
    return (model, List.filteri (fun i _ -> List.nth fails i < 0.3) names))

let prop_session_routes_exactly =
  QCheck.Test.make ~count:40
    ~name:"symmetric models: a session's symmetric answers = full"
    (QCheck.make
       ~print:(fun (m, failed) -> print_model m ^ " failed: " ^ String.concat "," failed)
       disaster_model_gen)
    (fun (model, failed) ->
      let module S = Measures.Session in
      List.for_all
        (fun initial ->
          let s = S.create ?initial model in
          let on kind q = Csl.Checker.check (Measures.to_csl_model (S.chain s kind)) q in
          List.for_all
            (fun text ->
              let q = Csl.Parser.parse text in
              S.route s q = S.Full
              ||
              match (on S.Symmetric q, on S.Full q) with
              | Csl.Checker.Value a, Csl.Checker.Value b -> close_rel a b
              | Csl.Checker.Satisfied a, Csl.Checker.Satisfied b -> a = b
              | _ -> false)
            (session_queries model)
          (* the tree labels always route to the quotient *)
          && S.route s (Csl.Parser.parse "S=? [ \"full_service\" ]") = S.Symmetric)
        [ None; Some (Semantics.disaster_state model ~failed) ])

(* The full chain's states numbered by their orbit, the symmetric build's
   state ids ([None] when a state has no orbit there). *)
let orbit_partition full sym =
  let n = Chain.states full.Semantics.chain in
  let ids = Array.init n (fun s -> sym.Semantics.state_index (Semantics.state full s)) in
  if Array.exists Option.is_none ids then None
  else Some (Ctmc.Lumping.partition_by_key n (fun s -> string_of_int (Option.get ids.(s))))

let prop_orbits_lumpable =
  QCheck.Test.make ~count:60
    ~name:"symmetric models: orbit partition is lumpable" arb_symmetric
    (fun model ->
      let full = Semantics.build model in
      let sym = Semantics.build ~symmetric:true model in
      match orbit_partition full sym with
      | None -> false
      | Some initial ->
          let r = Ctmc.Lumping.lump full.Semantics.chain ~initial in
          Array.length r.Ctmc.Lumping.blocks = Chain.states sym.Semantics.chain
          && Array.fold_left max 0 initial + 1 = Chain.states sym.Semantics.chain)

(* Four ways identical components stay apart, each inexact when grouped:
   a foreign member of a Priority unit ranked between them; adjacent ranks
   in a preemptive Priority unit with 2-stage repairs (preemption restarts
   the newcomer, FCFS would keep the older member's stage); a foreign
   member between them in a warm or cold spare unit; and a cold spare
   unit, even with the twins adjacent (the dormant twin cannot fail, so
   the orbit count would include unreachable states). *)
let inexact_model_gen =
  QCheck.Gen.(
    let* case = int_range 0 3 in
    let* mttf = float_range 50. 2000. and* mttr = float_range 0.5 50. in
    let* f_mttf = float_range 50. 2000. and* f_mttr = float_range 0.5 50. in
    let* crews = int_range 1 2 and* preemptive = bool in
    let* mode = oneofl [ Spare.Warm 0.5; Spare.Cold ] in
    let* gate = int_range 0 1 in
    let stages = if case = 1 then 2 else 1 in
    let twin name = Component.make ~name ~mttf ~mttr ~repair_stages:stages () in
    let components =
      [ twin "a1"; Component.make ~name:"f" ~mttf:f_mttf ~mttr:f_mttr (); twin "a2" ]
    in
    let names = [ "a1"; "f"; "a2" ] in
    let strategy, preemptive =
      match case with
      | 0 -> (Repair.Priority names, preemptive)
      | 1 -> (Repair.Priority [ "f"; "a1"; "a2" ], true)
      | 2 -> (Repair.Fcfs, preemptive)
      | _ -> (Repair.Priority [ "a1"; "a2"; "f" ], preemptive)
    in
    let twins = [ Fault_tree.basic "a1"; Fault_tree.basic "a2" ] in
    return
      (Model.make ~name:"inexact" ~components
         ~repair_units:[ Repair.make ~name:"ru" ~strategy ~crews ~preemptive ~components:names () ]
         ~spare_units:
           (match case with
            | 2 -> [ Spare.make ~name:"smu" ~mode ~primaries:[ "a1" ] ~spares:[ "f"; "a2" ] () ]
            | 3 -> [ Spare.make ~name:"smu" ~mode:Spare.Cold ~primaries:[ "a1" ] ~spares:[ "a2" ] () ]
            | _ -> [])
         ~fault_tree:
           (Fault_tree.or_
              [ (if gate = 0 then Fault_tree.and_ twins else Fault_tree.or_ twins);
                Fault_tree.basic "f" ])
         ()))

let prop_spoiled_no_group =
  QCheck.Test.make ~count:30
    ~name:"symmetric models: warm/cold spares and priority ranks form no group when inexact"
    (QCheck.make ~print:print_model inexact_model_gen)
    (fun model ->
      let full = Semantics.build model in
      let sym = Semantics.build ~symmetric:true model in
      Semantics.symmetry_groups sym = []
      && chain_digest sym.Semantics.chain = chain_digest full.Semantics.chain
      && states_digest sym = states_digest full)

(* A generated model with its components declared in another order; the
   Priority lists, spare units and trees keep naming the same components,
   so alike components now meet their ranks and spare positions in
   another order. *)
let shuffled_model_gen =
  QCheck.Gen.(
    let* model = any_symmetric_model_gen in
    let* components = shuffle_l model.Model.components in
    return (model, Model.make ~name:model.Model.name ~components
                     ~repair_units:model.Model.repair_units
                     ~spare_units:model.Model.spare_units
                     ~fault_tree:model.Model.fault_tree ()))

let prop_groups_order_free =
  QCheck.Test.make ~count:100
    ~name:"symmetric models: groups do not depend on declaration order"
    (QCheck.make ~print:(fun (m, _) -> print_model m) shuffled_model_gen)
    (fun (model, shuffled) ->
      let groups m =
        List.sort compare (List.map (List.sort compare) (Semantics.interchangeable m))
      in
      groups model = groups shuffled
      && Chain.states (Semantics.build ~symmetric:true model).Semantics.chain
         = Chain.states (Semantics.build ~symmetric:true shuffled).Semantics.chain)

let () =
  Alcotest.run "core"
    [
      ( "definitions",
        [
          Alcotest.test_case "component validation" `Quick test_component_validation;
          Alcotest.test_case "repair validation" `Quick test_repair_validation;
          Alcotest.test_case "strategy strings" `Quick test_repair_strategy_strings;
          Alcotest.test_case "priority ranks" `Quick test_repair_ranks;
          Alcotest.test_case "spare activation" `Quick test_spare_activation;
          Alcotest.test_case "model validation" `Quick test_model_validation;
          Alcotest.test_case "service levels" `Quick test_model_service_levels;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "reliability (no repairs)" `Quick
            test_semantics_unrepaired_reliability;
          Alcotest.test_case "dedicated = product form" `Quick
            test_semantics_dedicated_product_form;
          Alcotest.test_case "scheduler invariants" `Quick test_semantics_invariants;
          Alcotest.test_case "single-crew state count" `Quick
            test_semantics_single_crew_counts;
          Alcotest.test_case "disaster queue order" `Quick
            test_semantics_fcfs_queue_order_preserved;
          Alcotest.test_case "frf dispatch order" `Quick test_semantics_frf_dispatch;
          Alcotest.test_case "preemptive state space" `Quick
            test_semantics_preemptive_smaller_space;
          Alcotest.test_case "cold spare dormancy" `Quick
            test_semantics_cold_spare_never_fails_dormant;
          Alcotest.test_case "warm spare rate" `Quick test_semantics_warm_spare_rate;
          Alcotest.test_case "service level per state" `Quick
            test_semantics_service_levels_per_state;
          Alcotest.test_case "cost structure" `Quick test_semantics_cost_structure;
          Alcotest.test_case "bad disaster" `Quick test_disaster_state_unknown_component;
          Alcotest.test_case "max_states limit" `Quick test_semantics_max_states;
          Alcotest.test_case "state_index roundtrip" `Quick
            test_semantics_state_index_roundtrip;
        ] );
      ( "measures",
        [
          Alcotest.test_case "survivability monotone" `Quick
            test_measures_survivability_monotone;
          Alcotest.test_case "survivability at zero" `Quick
            test_measures_survivability_at_zero;
          Alcotest.test_case "cost measures" `Quick test_measures_costs;
          Alcotest.test_case "CSL agreement" `Quick test_measures_csl_agreement;
          Alcotest.test_case "combined availability" `Quick test_combined_availability;
          Alcotest.test_case "mixed disasters" `Quick test_mixed_disasters;
          Alcotest.test_case "mixed disaster weights" `Quick
            test_mixed_disaster_weights;
          Alcotest.test_case "rooted shares the operator" `Quick
            test_rooted_shares_operator;
          Alcotest.test_case "rooted rejects" `Quick test_rooted_rejects;
          Alcotest.test_case "two repair units" `Quick test_two_repair_units_product;
        ] );
      ( "erlang-stages",
        [
          Alcotest.test_case "state count" `Quick test_stages_state_count;
          Alcotest.test_case "repair-time distribution" `Quick
            test_stages_repair_distribution;
          Alcotest.test_case "availability invariant" `Quick
            test_stages_availability_invariant;
          Alcotest.test_case "variance effect" `Quick test_stages_less_variance_slower_early;
          Alcotest.test_case "queue strategies + invariants" `Quick
            test_stages_queue_strategy;
          Alcotest.test_case "dedicated two paths" `Quick test_stages_dedicated_two_paths;
          Alcotest.test_case "xml roundtrip" `Quick test_stages_xml_roundtrip;
        ] );
      ( "failure-modes",
        [
          Alcotest.test_case "chain shape" `Quick test_modes_chain_shape;
          Alcotest.test_case "availability closed form" `Quick test_modes_availability;
          Alcotest.test_case "mode literals" `Quick test_modes_specific_literal;
          Alcotest.test_case "validation" `Quick test_modes_validation;
          Alcotest.test_case "mode-aware scheduling" `Quick
            test_modes_scheduling_priority;
          Alcotest.test_case "mode-specific cost" `Quick test_modes_mode_cost;
          Alcotest.test_case "xml roundtrip" `Quick test_modes_xml_roundtrip;
          Alcotest.test_case "prism translation rejected" `Quick
            test_modes_prism_rejected;
          Alcotest.test_case "per-mode importance" `Quick test_modes_importance;
          Alcotest.test_case "example xml file" `Quick test_modes_example_file;
        ] );
      ( "importance",
        [
          Alcotest.test_case "series-parallel closed forms" `Quick
            test_importance_series_parallel;
          Alcotest.test_case "boundary unavailabilities" `Quick test_importance_bounds;
          Alcotest.test_case "mean-time measures" `Quick test_mean_time_measures;
          Alcotest.test_case "degradation scenario" `Quick test_degradation_scenario;
        ] );
      ( "xml",
        [
          Alcotest.test_case "roundtrip" `Quick test_xml_roundtrip;
          Alcotest.test_case "roundtrip through text" `Quick
            test_xml_roundtrip_through_text;
          Alcotest.test_case "spare units" `Quick test_xml_spare_units;
          Alcotest.test_case "schema errors" `Quick test_xml_schema_errors;
          Alcotest.test_case "priority strategy" `Quick test_xml_priority_strategy;
        ] );
      ( "export",
        [
          Alcotest.test_case "fault tree dot" `Quick test_export_fault_tree;
          Alcotest.test_case "model dot" `Quick test_export_model;
          Alcotest.test_case "chain dot" `Quick test_export_chain;
          Alcotest.test_case "size limit" `Quick test_export_chain_too_large;
        ] );
      ( "golden-chains",
        [
          Alcotest.test_case "shipped models" `Quick test_golden_models;
          Alcotest.test_case "table 1" `Quick test_golden_table1;
          Alcotest.test_case "table 1, symmetric" `Quick test_golden_table1_symmetric;
          Alcotest.test_case "reduced observations" `Quick test_reduced_observations;
          Alcotest.test_case "session: steady queries build no full chain" `Quick
            test_session_steady_builds;
          Alcotest.test_case "disaster starts" `Quick test_golden_disasters;
          Alcotest.test_case "observations vs fault tree" `Quick
            test_observations_match_fault_tree;
        ] );
      ( "model-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_two_paths_agree; prop_measures_sane; prop_survivability_monotone;
            prop_survivability_matches_absorbed; prop_rooted_matches_rebuild;
            prop_lint_model_is_lint_of_xml;
          ] );
      ( "symmetric-builds",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_symmetric_counts; prop_symmetric_measures; prop_session_routes_exactly;
            prop_orbits_lumpable; prop_spoiled_no_group; prop_groups_order_free;
          ] );
      ( "to-prism",
        [
          Alcotest.test_case "fcfs agrees" `Quick test_to_prism_fcfs;
          Alcotest.test_case "two crews agree" `Quick test_to_prism_two_crews;
          Alcotest.test_case "dedicated agrees" `Quick test_to_prism_dedicated;
          Alcotest.test_case "frf agrees" `Quick test_to_prism_frf;
          Alcotest.test_case "unrepaired agrees" `Quick test_to_prism_unrepaired;
          Alcotest.test_case "disaster initial state" `Quick
            test_to_prism_disaster_initial;
          Alcotest.test_case "preemptive rejected" `Quick test_to_prism_rejects_preemptive;
          Alcotest.test_case "cold spare rejected" `Quick test_to_prism_rejects_cold_spare;
          Alcotest.test_case "sanitize" `Quick test_sanitize;
          Alcotest.test_case "output parses" `Quick test_to_prism_output_parses;
        ] );
    ]
