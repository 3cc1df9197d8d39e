(* Tests for the CTMC engine, validated against closed-form results for
   small chains (2-state machines, Erlang chains, birth-death queues) and
   against the independent Monte-Carlo simulator. *)

module Chain = Ctmc.Chain
module Analysis = Ctmc.Analysis
module Transient = Ctmc.Transient
module Reachability = Ctmc.Reachability
module Steady_state = Ctmc.Steady_state
module Rewards = Ctmc.Rewards
module Lumping = Ctmc.Lumping
module Simulate = Ctmc.Simulate
module Vec = Numeric.Vec

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* the workhorse example: 0 --a--> 1, 1 --b--> 0 *)
let two_state a b = Chain.of_transitions ~states:2 [ (0, 1, a); (1, 0, b) ]

let p0_exact a b t = (b /. (a +. b)) +. ((a /. (a +. b)) *. Float.exp (-.(a +. b) *. t))

(* one stream through the kernel's vector face *)
let mixture a ~dir ~coeff start ~times =
  match Analysis.poisson_mixture_batch a ~dir [ { Analysis.start; coeff; times } ] with
  | [ vs ] -> vs
  | _ -> Alcotest.fail "expected one stream"

let mass pred pi =
  let acc = ref 0. in
  Array.iteri (fun s p -> if pred s then acc := !acc +. p) pi;
  !acc

(* ------------------------------------------------------------------ *)
(* Chain *)

let test_chain_validation () =
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Chain.make: negative rate -1 at (0,1)") (fun () ->
      ignore (Chain.of_transitions ~states:2 [ (0, 1, -1.) ]));
  Alcotest.check_raises "diagonal"
    (Invalid_argument "Chain.make: non-zero diagonal entry at state 0") (fun () ->
      ignore (Chain.of_transitions ~states:2 [ (0, 0, 1.) ]))

let test_chain_accessors () =
  let m = two_state 2. 3. in
  Alcotest.(check int) "states" 2 (Chain.states m);
  Alcotest.(check int) "transitions" 2 (Chain.transition_count m);
  check_close "rate" 2. (Chain.rate m 0 1);
  check_close "exit" 3. (Chain.exit_rates m).(1);
  let q = Chain_oracle.generator m in
  check_close "generator diagonal" (-2.) (Numeric.Sparse.get q 0 0)

let test_chain_uniformized () =
  let m = two_state 2. 3. in
  let lambda, p = Chain.uniformized m in
  Alcotest.(check bool) "lambda >= max exit" true (lambda >= 3.);
  let sums = Numeric.Sparse.row_sums p in
  check_close "row 0 stochastic" 1. sums.(0);
  check_close "row 1 stochastic" 1. sums.(1)

(* a 40-state chain with uneven rates, so that every sum rounds *)
let ring_chain () =
  Chain.of_transitions ~states:40
    (List.concat
       (List.init 40 (fun i ->
            [
              (i, (i + 1) mod 40, 1. +. (float_of_int (i mod 7) /. 3.));
              (i, ((7 * i) + 3) mod 40, 0.1 *. float_of_int (1 + (i mod 5)));
            ])))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let test_chain_embedded () =
  let m = Chain.of_transitions ~states:3 [ (0, 1, 1.); (0, 2, 3.) ] in
  let e = Chain.embedded m in
  check_close "jump prob" 0.25 (Numeric.Sparse.get e 0 1);
  check_close "absorbing self-loop" 1. (Numeric.Sparse.get e 1 1)

let test_chain_absorbing () =
  let m = two_state 2. 3. in
  let m' = Chain_oracle.absorbing m ~pred:(fun s -> s = 1) in
  check_close "no exit from 1" 0. (Chain.exit_rates m').(1);
  check_close "0 unchanged" 2. (Chain.exit_rates m').(0);
  (* the predicate is asked once per state, not once per stored entry *)
  let m = Chain.of_transitions ~states:3 [ (0, 1, 1.); (0, 2, 2.); (1, 0, 1.); (1, 2, 4.) ] in
  let calls = ref 0 in
  let m' = Chain_oracle.absorbing m ~pred:(fun s -> incr calls; s = 0) in
  Alcotest.(check int) "one call per state" 3 !calls;
  check_close "1 unchanged" 5. (Chain.exit_rates m').(1)

let test_restrict_reachable () =
  let m =
    Chain.of_transitions ~states:4 ~init:(Vec.unit 4 0) [ (0, 1, 1.); (2, 3, 1.) ]
  in
  let m', old_of_new = Chain_oracle.restrict_reachable m in
  Alcotest.(check int) "two reachable" 2 (Chain.states m');
  Alcotest.(check (array int)) "mapping" [| 0; 1 |] old_of_new

let test_chain_restrict () =
  let m =
    Chain.of_transitions ~states:4
      [ (0, 1, 1.); (1, 2, 2.); (2, 1, 0.5); (2, 3, 0.25); (3, 2, 4.) ]
  in
  (* {1, 2, 3} is closed; new state k is old state [|3; 1; 2|].(k) *)
  let sub = Chain.restrict m [| 3; 1; 2 |] in
  Alcotest.(check int) "three states" 3 (Chain.states sub);
  Alcotest.(check (array (float 0.))) "rates follow the states"
    [| 4.; 2.; 0.5; 0.25 |]
    [| Chain.rate sub 0 2; Chain.rate sub 1 2; Chain.rate sub 2 1; Chain.rate sub 2 0 |];
  Alcotest.(check bool) "exit rates carried over" true
    (same_bits (Chain.exit_rates sub)
       (Array.map (fun s -> (Chain.exit_rates m).(s)) [| 3; 1; 2 |]));
  Alcotest.check_raises "open set"
    (Invalid_argument "Chain.restrict: a transition leaves the set")
    (fun () -> ignore (Chain.restrict m [| 0; 1 |]));
  Alcotest.check_raises "repeated state"
    (Invalid_argument "Chain.restrict: repeated state")
    (fun () -> ignore (Chain.restrict m [| 1; 2; 3; 1 |]));
  Alcotest.check_raises "empty set"
    (Invalid_argument "Chain.restrict: empty state set")
    (fun () -> ignore (Chain.restrict m [||]))

(* ------------------------------------------------------------------ *)
(* Transient *)

let test_transient_two_state () =
  let a = 2. and b = 3. in
  let m = two_state a b in
  List.iter
    (fun t ->
      let pi = Transient.distribution m t in
      check_close ~eps:1e-10 (Printf.sprintf "pi0(%g)" t) (p0_exact a b t) pi.(0);
      check_close ~eps:1e-10 "mass conserved" 1. (Vec.sum pi))
    [ 0.; 0.01; 0.3; 1.; 10.; 100. ]

let test_transient_erlang () =
  (* chain of n exponential(r) stages: P(absorbed by t) = P(Poisson(rt) >= n) *)
  let n = 5 and r = 2. in
  let m =
    Chain.of_transitions ~states:(n + 1)
      (List.init n (fun i -> (i, i + 1, r)))
  in
  let t = 1.7 in
  let pi = Transient.distribution m t in
  let poisson k =
    let rec fact i = if i <= 1 then 1. else float_of_int i *. fact (i - 1) in
    Float.exp (-.(r *. t)) *. ((r *. t) ** float_of_int k) /. fact k
  in
  let expected = 1. -. (poisson 0 +. poisson 1 +. poisson 2 +. poisson 3 +. poisson 4) in
  check_close ~eps:1e-10 "erlang cdf" expected pi.(n)

let test_transient_curve_matches_pointwise () =
  let m = two_state 1.5 0.5 in
  let times = [ 0.2; 1.0; 2.5; 7. ] in
  let curve =
    mixture (Analysis.create m) ~dir:Analysis.Forward ~coeff:Analysis.Pmf
      (Chain.initial m) ~times
  in
  List.iter2
    (fun t pi ->
      let direct = Transient.distribution m t in
      check_close ~eps:1e-9 (Printf.sprintf "curve(%g)" t) direct.(0) pi.(0))
    times curve

let test_transient_backward () =
  let a = 2. and b = 3. in
  let m = two_state a b in
  let v = [| 1.; 0. |] in
  let u =
    List.hd
      (mixture (Analysis.create m) ~dir:Analysis.Backward ~coeff:Analysis.Pmf v
         ~times:[ 0.7 ])
  in
  check_close ~eps:1e-10 "backward from 0" (p0_exact a b 0.7) u.(0);
  check_close ~eps:1e-10 "backward from 1" (1. -. p0_exact b a 0.7) u.(1)

let test_transient_zero_time () =
  let m = two_state 1. 1. in
  let pi = Transient.distribution m 0. in
  check_close "identity at 0" 1. pi.(0)

let test_transient_absorbing_chain () =
  let m = Chain.of_transitions ~states:1 [] in
  let pi = Transient.distribution m 100. in
  check_close "absorbing stays" 1. pi.(0)

(* ------------------------------------------------------------------ *)
(* Reachability *)

let test_bounded_until_pure_death () =
  let m = Chain.of_transitions ~states:2 [ (0, 1, 2.) ] in
  let p =
    Reachability.bounded_until_from_init m
      ~phi:(fun _ -> true)
      ~psi:(fun s -> s = 1)
      ~bound:0.9
  in
  check_close ~eps:1e-10 "reach by t" (1. -. Float.exp (-1.8)) p

let test_bounded_until_phi_constraint () =
  let m = Chain.of_transitions ~states:3 [ (0, 1, 1.); (1, 2, 1.) ] in
  let p =
    Reachability.bounded_until_from_init m
      ~phi:(fun s -> s <> 1)
      ~psi:(fun s -> s = 2)
      ~bound:50.
  in
  check_close "blocked path" 0. p;
  let p' =
    Reachability.bounded_until_from_init m
      ~phi:(fun _ -> true)
      ~psi:(fun s -> s = 2)
      ~bound:50.
  in
  Alcotest.(check bool) "unblocked is nearly certain" true (p' > 0.99)

let test_bounded_until_psi_initial () =
  let m = two_state 1. 1. in
  let v =
    Reachability.bounded_until m ~phi:(fun _ -> true) ~psi:(fun s -> s = 0) ~bound:0.
  in
  check_close "psi holds now" 1. v.(0);
  check_close "psi does not" 0. v.(1)

let test_unbounded_until_gambler () =
  let m =
    Chain.of_transitions ~states:4
      [ (1, 0, 1.); (1, 2, 1.); (2, 1, 1.); (2, 3, 1.) ]
  in
  let v =
    Reachability.unbounded_until m ~phi:(fun s -> s <> 0) ~psi:(fun s -> s = 3)
  in
  check_close ~eps:1e-9 "gambler from 1" (1. /. 3.) v.(1);
  check_close ~eps:1e-9 "gambler from 2" (2. /. 3.) v.(2);
  check_close "absorbed at 0" 0. v.(0);
  check_close "already there" 1. v.(3)

let test_unbounded_until_certain () =
  let m = two_state 2. 3. in
  let v = Reachability.eventually m ~psi:(fun s -> s = 1) in
  check_close ~eps:1e-9 "recurrent chain reaches everything" 1. v.(0)

let test_bounded_until_curve_monotone () =
  let m = Chain.of_transitions ~states:2 [ (0, 1, 0.5) ] in
  let points =
    Reachability.bounded_until_curve m
      ~phi:(fun _ -> true)
      ~psi:(fun s -> s = 1)
      ~bounds:[ 0.; 1.; 2.; 4.; 8. ]
  in
  let values = List.map snd points in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-12 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone in t" true (monotone values);
  check_close ~eps:1e-10 "final value" (1. -. Float.exp (-4.)) (List.nth values 4)

(* ------------------------------------------------------------------ *)
(* Absorption: expected hitting times *)

let test_hitting_time_two_state () =
  let m = two_state 2. 3. in
  let times = Ctmc.Absorption.expected_time_to m ~psi:(fun s -> s = 1) in
  check_close ~eps:1e-10 "from 0" 0.5 times.(0);
  check_close "on target" 0. times.(1)

let test_hitting_time_erlang () =
  (* chain of stages: expected absorption time = sum of stage means *)
  let rates = [ 2.; 4.; 0.5 ] in
  let m =
    Chain.of_transitions ~states:4
      (List.mapi (fun i r -> (i, i + 1, r)) rates)
  in
  let times = Ctmc.Absorption.expected_time_to m ~psi:(fun s -> s = 3) in
  check_close ~eps:1e-9 "sum of means" (0.5 +. 0.25 +. 2.) times.(0);
  check_close ~eps:1e-9 "tail" 2. times.(2)

let test_hitting_time_unreachable () =
  let m = Chain.of_transitions ~states:3 [ (0, 1, 1.) ] in
  let times = Ctmc.Absorption.expected_time_to m ~psi:(fun s -> s = 2) in
  Alcotest.(check bool) "infinite" true (times.(0) = infinity);
  check_close "target itself" 0. times.(2)

let test_hitting_time_not_almost_sure () =
  (* 0 goes to absorbing 1 or absorbing 2: hitting 2 has probability 3/4 *)
  let m = Chain.of_transitions ~states:3 [ (0, 1, 1.); (0, 2, 3.) ] in
  let times = Ctmc.Absorption.expected_time_to m ~psi:(fun s -> s = 2) in
  Alcotest.(check bool) "conditional expectation refused" true (times.(0) = infinity)

let test_mean_time_from_init () =
  let m = Chain.of_transitions ~states:2 [ (0, 1, 0.25) ] in
  check_close ~eps:1e-9 "mttf" 4. (Ctmc.Absorption.mean_time_from_init m ~psi:(fun s -> s = 1))

(* interval until *)

let test_interval_until_transient_target () =
  (* 0 -l1-> 1 -l2-> 2; psi = {1}: P(exists t in [a,b] with X_t = 1) *)
  let l1 = 0.7 and l2 = 1.3 in
  let m = Chain.of_transitions ~states:3 [ (0, 1, l1); (1, 2, l2) ] in
  let a = 0.9 and b = 2.1 in
  let v =
    Ctmc.Reachability.interval_until m
      ~phi:(fun _ -> true)
      ~psi:(fun s -> s = 1)
      ~lower:a ~upper:b
  in
  let p0_at_a = Float.exp (-.l1 *. a) in
  let p1_at_a = l1 /. (l2 -. l1) *. (Float.exp (-.l1 *. a) -. Float.exp (-.l2 *. a)) in
  let expected = p1_at_a +. (p0_at_a *. (1. -. Float.exp (-.l1 *. (b -. a)))) in
  check_close ~eps:1e-10 "analytic" expected v.(0)

let test_interval_until_zero_lower () =
  let m = two_state 1. 2. in
  let via_interval =
    Ctmc.Reachability.interval_until m ~phi:(fun _ -> true) ~psi:(fun s -> s = 1)
      ~lower:0. ~upper:3.
  in
  let via_bounded =
    Ctmc.Reachability.bounded_until m ~phi:(fun _ -> true) ~psi:(fun s -> s = 1)
      ~bound:3.
  in
  Array.iteri (fun s v -> check_close "agrees with bounded" v via_interval.(s)) via_bounded

let test_interval_until_phi_constraint () =
  (* phi = not state 1 kills paths that pass through 1 before reaching 2 *)
  let m = Chain.of_transitions ~states:3 [ (0, 1, 1.); (0, 2, 1.); (1, 2, 1.) ] in
  let v =
    Ctmc.Reachability.interval_until m
      ~phi:(fun s -> s <> 1)
      ~psi:(fun s -> s = 2)
      ~lower:0.5 ~upper:10.
  in
  (* direct path only: P(jump to 2 rather than 1, after 0.5) + path already
     in 2 at 0.5 having never visited 1 *)
  Alcotest.(check bool) "strictly below unconstrained" true
    (v.(0)
    < (Ctmc.Reachability.interval_until m
         ~phi:(fun _ -> true)
         ~psi:(fun s -> s = 2)
         ~lower:0.5 ~upper:10.).(0));
  check_close "blocked state" 0. v.(1)

let test_interval_until_monotone_widening () =
  let m = two_state 0.3 0.9 in
  let p lower upper =
    (Ctmc.Reachability.interval_until m ~phi:(fun _ -> true) ~psi:(fun s -> s = 1)
       ~lower ~upper).(0)
  in
  Alcotest.(check bool) "wider upper" true (p 1. 2. <= p 1. 4. +. 1e-12);
  Alcotest.(check bool) "smaller lower" true (p 2. 4. <= p 1. 4. +. 1e-12)

(* witness paths *)

let test_witness_simple_choice () =
  (* 0 -> 1 (rate 1) -> 3 (rate 1), 0 -> 2 (rate 3) -> 3 (rate 1):
     the most probable path to 3 goes through 2 (jump prob 3/4) *)
  let m =
    Chain.of_transitions ~states:4
      [ (0, 1, 1.); (0, 2, 3.); (1, 3, 1.); (2, 3, 1.) ]
  in
  match Ctmc.Witness.most_probable_path m ~psi:(fun s -> s = 3) with
  | Some w ->
      Alcotest.(check (list int)) "path" [ 0; 2; 3 ] w.Ctmc.Witness.states;
      check_close ~eps:1e-12 "probability" 0.75 w.Ctmc.Witness.probability
  | None -> Alcotest.fail "expected a path"

let test_witness_unreachable () =
  let m = Chain.of_transitions ~states:3 [ (0, 1, 1.) ] in
  Alcotest.(check bool) "no path" true
    (Ctmc.Witness.most_probable_path m ~psi:(fun s -> s = 2) = None)

let test_witness_trivial () =
  let m = two_state 1. 1. in
  match Ctmc.Witness.most_probable_path m ~psi:(fun s -> s = 0) with
  | Some w ->
      Alcotest.(check (list int)) "already there" [ 0 ] w.Ctmc.Witness.states;
      check_close "probability 1" 1. w.Ctmc.Witness.probability
  | None -> Alcotest.fail "expected the trivial path"

let test_witness_prefers_short_high_probability () =
  (* long chain of probability-1 jumps vs a direct low-probability jump:
     the product favours the long certain path *)
  let m =
    Chain.of_transitions ~states:5
      [ (0, 4, 0.1); (0, 1, 0.9); (1, 2, 1.); (2, 3, 1.); (3, 4, 1.) ]
  in
  match Ctmc.Witness.most_probable_path m ~psi:(fun s -> s = 4) with
  | Some w ->
      Alcotest.(check (list int)) "long path wins" [ 0; 1; 2; 3; 4 ] w.Ctmc.Witness.states;
      check_close ~eps:1e-12 "probability" 0.9 w.Ctmc.Witness.probability
  | None -> Alcotest.fail "expected a path"

(* ------------------------------------------------------------------ *)
(* Steady state *)

let test_steady_irreducible () =
  let m = two_state 2. 3. in
  let pi = Steady_state.solve m in
  check_close ~eps:1e-10 "pi0" 0.6 pi.(0)

let test_steady_reducible_two_absorbing () =
  let m = Chain.of_transitions ~states:3 [ (0, 1, 1.); (0, 2, 3.) ] in
  let pi = Steady_state.solve m in
  check_close ~eps:1e-9 "absorbed in 1" 0.25 pi.(1);
  check_close ~eps:1e-9 "absorbed in 2" 0.75 pi.(2);
  check_close "transient state empty" 0. pi.(0)

let test_steady_reducible_bscc_classes () =
  let m =
    Chain.of_transitions ~states:4
      [ (0, 1, 1.); (0, 3, 1.); (1, 2, 1.); (2, 1, 4.) ]
  in
  let pi = Steady_state.solve m in
  check_close ~eps:1e-9 "state 1" (0.5 *. 0.8) pi.(1);
  check_close ~eps:1e-9 "state 2" (0.5 *. 0.2) pi.(2);
  check_close ~eps:1e-9 "state 3" 0.5 pi.(3)

let test_steady_depends_on_init () =
  let m =
    Chain.of_transitions ~states:3 ~init:(Vec.unit 3 1) [ (0, 1, 1.); (0, 2, 1.) ]
  in
  let pi = Steady_state.solve m in
  check_close "starts in absorbing 1" 1. pi.(1)

let test_long_run_probability () =
  let m = two_state 2. 3. in
  check_close ~eps:1e-10 "long run" 0.6
    (Steady_state.long_run_probability m ~pred:(fun s -> s = 0))

let test_is_irreducible () =
  Alcotest.(check bool) "two-state" true (Steady_state.is_irreducible (two_state 1. 1.));
  Alcotest.(check bool) "absorbing" false
    (Steady_state.is_irreducible (Chain.of_transitions ~states:2 [ (0, 1, 1.) ]))

(* ------------------------------------------------------------------ *)
(* Rewards *)

let test_instantaneous_reward () =
  let a = 2. and b = 3. in
  let m = two_state a b in
  let r = Rewards.instantaneous m ~reward:[| 5.; 1. |] ~at:0.7 in
  let p0 = p0_exact a b 0.7 in
  check_close ~eps:1e-10 "instantaneous" ((5. *. p0) +. (1. -. p0)) r

let test_accumulated_reward_two_state () =
  let a = 2. and b = 3. in
  let m = two_state a b in
  let t = 1.3 in
  let acc = Rewards.accumulated m ~reward:[| 1.; 0. |] ~upto:t in
  let expected =
    (b /. (a +. b) *. t) +. (a /. ((a +. b) ** 2.) *. (1. -. Float.exp (-.(a +. b) *. t)))
  in
  check_close ~eps:1e-10 "accumulated" expected acc

let test_accumulated_absorbing_expected_time () =
  let m = Chain.of_transitions ~states:2 [ (0, 1, 4.) ] in
  let acc = Rewards.accumulated m ~reward:[| 1.; 0. |] ~upto:100. in
  check_close ~eps:1e-8 "mean absorption time" 0.25 acc

let test_accumulated_curve_consistent () =
  let m = two_state 0.8 1.2 in
  let reward = [| 2.; 7. |] in
  let curve = Rewards.accumulated_curve m ~reward ~times:[ 0.5; 1.5; 3. ] in
  List.iter
    (fun (t, v) ->
      let direct = Rewards.accumulated m ~reward ~upto:t in
      check_close ~eps:1e-9 (Printf.sprintf "curve(%g)" t) direct v)
    curve

let test_accumulated_linear_when_constant () =
  let m = two_state 1. 1. in
  let acc = Rewards.accumulated m ~reward:[| 3.; 3. |] ~upto:7. in
  check_close ~eps:1e-9 "3t" 21. acc

let test_steady_state_reward () =
  let m = two_state 2. 3. in
  let r = Rewards.steady_state m ~reward:[| 10.; 0. |] in
  check_close ~eps:1e-9 "long-run reward rate" 6. r

(* ------------------------------------------------------------------ *)
(* Lumping *)

let test_lump_symmetric_pair () =
  (* two independent identical 2-state components; lump by number failed:
     states (up,up)=0, (dn,up)=1, (up,dn)=2, (dn,dn)=3 *)
  let lam = 0.1 and mu = 1. in
  let m =
    Chain.of_transitions ~states:4
      [
        (0, 1, lam); (0, 2, lam);
        (1, 0, mu); (1, 3, lam);
        (2, 0, mu); (2, 3, lam);
        (3, 1, mu); (3, 2, mu);
      ]
  in
  let initial = [| 0; 1; 1; 2 |] in
  let r = Lumping.lump m ~initial in
  Alcotest.(check int) "3 blocks" 3 (Chain.states r.Lumping.quotient);
  let pi_full = Steady_state.solve m in
  let pi_q = Steady_state.solve r.Lumping.quotient in
  check_close ~eps:1e-9 "steady state preserved (block 1)"
    (pi_full.(1) +. pi_full.(2))
    pi_q.(1);
  let t = 3.1 in
  let full_t = Transient.distribution m t in
  let q_t = Transient.distribution r.Lumping.quotient t in
  check_close ~eps:1e-9 "transient preserved" (full_t.(1) +. full_t.(2)) q_t.(1)

let test_lump_refines_when_needed () =
  let m =
    Chain.of_transitions ~states:4
      [ (0, 1, 1.); (0, 2, 1.); (1, 3, 5.); (2, 3, 7.) ]
  in
  let initial = [| 0; 1; 1; 2 |] in
  let r = Lumping.lump m ~initial in
  Alcotest.(check int) "split into 4 blocks" 4 (Chain.states r.Lumping.quotient)

let test_lump_identity_partition () =
  let m = two_state 1. 2. in
  let r = Lumping.lump m ~initial:[| 0; 1 |] in
  Alcotest.(check int) "nothing to merge" 2 (Chain.states r.Lumping.quotient)

let test_lump_lift_project () =
  let m = two_state 1. 1. in
  let r = Lumping.lump m ~initial:[| 0; 0 |] in
  Alcotest.(check int) "single block" 1 (Chain.states r.Lumping.quotient);
  let lifted = Lumping.lift r [| 42. |] in
  Alcotest.(check (array (float 0.))) "lift" [| 42.; 42. |] lifted;
  let projected = Lumping.project r [| 1.; 2. |] in
  Alcotest.(check (array (float 0.))) "project" [| 3. |] projected

let test_lump_no_grid_splits () =
  (* regression for the old decade-scaled grid signatures: a pair of
     lumpable states whose outgoing-rate sums land on opposite sides of a
     %.0f rounding boundary, a 10^k decade boundary, or the sqrt(10)
     scale cut used to be split spuriously. The tolerance predicate has
     no boundaries, so they must stay merged. *)
  let check_pair name sum_a sum_b =
    (* 0 fans out to 1 and 2; both reach the absorbing pair {3,4} with
       nearly equal total rate, split unevenly so each side accumulates
       its own float summation noise *)
    let m =
      Chain.of_transitions ~states:5
        [
          (0, 1, 1.); (0, 2, 1.);
          (1, 3, sum_a *. 0.5); (1, 4, sum_a *. 0.5);
          (2, 3, sum_b *. 0.3); (2, 4, sum_b *. 0.7);
        ]
    in
    let r = Lumping.lump m ~initial:[| 0; 0; 0; 1; 1 |] in
    Alcotest.(check int) (name ^ ": 3 blocks") 3 (Chain.states r.Lumping.quotient);
    Alcotest.(check int)
      (name ^ ": lumpable pair stays merged")
      r.Lumping.block_of.(1) r.Lumping.block_of.(2)
  in
  let s10 = Float.sqrt 10. in
  check_pair "sqrt(10) scale cut" (s10 *. (1. -. 5e-11)) (s10 *. (1. +. 5e-11));
  check_pair "%.0f rounding boundary" 3.4999999999 3.5000000002;
  check_pair "decade boundary" 0.99999999995 1.00000000005;
  (* and genuinely different sums must still split *)
  let m =
    Chain.of_transitions ~states:5
      [ (0, 1, 1.); (0, 2, 1.); (1, 3, 3.1); (1, 4, 3.1); (2, 3, 3.2); (2, 4, 3.2) ]
  in
  let r = Lumping.lump m ~initial:[| 0; 0; 0; 1; 1 |] in
  Alcotest.(check int) "distinct sums split" 4 (Chain.states r.Lumping.quotient)

let test_lump_tolerance_validation () =
  Alcotest.check_raises "negative tolerance"
    (Invalid_argument "Lumping.lump: negative tolerance") (fun () ->
      ignore (Lumping.lump (two_state 1. 1.) ~rate_tolerance:(-1.) ~initial:[| 0; 0 |]));
  Alcotest.check_raises "non-dense partition"
    (Invalid_argument "Lumping.lump: block ids not dense") (fun () ->
      ignore (Lumping.lump (two_state 1. 1.) ~initial:[| 0; 2 |]))

(* ------------------------------------------------------------------ *)
(* Simulate (cross-validation of the numerical engine) *)

let test_simulate_transient_matches () =
  let m = two_state 2. 3. in
  let rng = Numeric.Rng.create 2024L in
  let est = Simulate.estimate_transient m rng ~runs:40_000 ~at:0.7 ~pred:(fun s -> s = 0) in
  let exact = p0_exact 2. 3. 0.7 in
  Alcotest.(check bool)
    (Printf.sprintf "simulation within 5 sigma (est %.4f exact %.4f)" est.Simulate.mean exact)
    true
    (Float.abs (est.Simulate.mean -. exact) < (5. *. est.Simulate.std_error) +. 1e-4)

let test_simulate_accumulated_matches () =
  let m = two_state 2. 3. in
  let rng = Numeric.Rng.create 99L in
  let reward = [| 1.; 0. |] in
  let est = Simulate.estimate_accumulated m rng ~runs:20_000 ~upto:1.3 ~reward in
  let exact = Rewards.accumulated m ~reward ~upto:1.3 in
  Alcotest.(check bool)
    (Printf.sprintf "accumulated within 5 sigma (est %.4f exact %.4f)" est.Simulate.mean exact)
    true
    (Float.abs (est.Simulate.mean -. exact) < (5. *. est.Simulate.std_error) +. 1e-4)

let test_simulate_path_shape () =
  let m = Chain.of_transitions ~states:2 [ (0, 1, 1.) ] in
  let rng = Numeric.Rng.create 5L in
  let path = Simulate.run m rng ~horizon:1000. in
  (match path with
  | (t0, s0) :: _ ->
      check_close "starts at 0" 0. t0;
      Alcotest.(check int) "initial state" 0 s0
  | [] -> Alcotest.fail "empty path");
  Alcotest.(check bool) "absorbed eventually" true (List.length path <= 2);
  Alcotest.(check int) "ends absorbed" 1 (Simulate.state_at path 999.)

let test_simulate_time_in () =
  let path = [ (0., 0); (2., 1); (5., 0) ] in
  check_close "time in state 0" 7. (Simulate.time_in path ~horizon:10. ~pred:(fun s -> s = 0));
  check_close "time in state 1" 3. (Simulate.time_in path ~horizon:10. ~pred:(fun s -> s = 1));
  check_close "truncated" 2. (Simulate.time_in path ~horizon:2. ~pred:(fun s -> s = 0))

let test_simulate_reward_of_path () =
  let path = [ (0., 0); (4., 1) ] in
  check_close "piecewise reward" ((4. *. 2.) +. (6. *. 10.))
    (Simulate.accumulated_reward path ~horizon:10. ~reward:[| 2.; 10. |])

(* ------------------------------------------------------------------ *)
(* qcheck: random small chains, invariants *)

let chain_gen =
  QCheck.Gen.(
    let* n = int_range 2 6 in
    let* entries =
      list_size (int_range 1 15)
        (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_range 0.01 5.))
    in
    let entries = List.filter (fun (i, j, _) -> i <> j) entries in
    return (n, entries))

let prop_transient_is_distribution =
  QCheck.Test.make ~count:100 ~name:"transient distributions stay distributions"
    (QCheck.make chain_gen)
    (fun (n, entries) ->
      QCheck.assume (entries <> []);
      let m = Chain.of_transitions ~states:n entries in
      let pi = Transient.distribution m 2.5 in
      Vec.is_distribution ~eps:1e-6 pi)

let prop_uniformization_matches_expm =
  QCheck.Test.make ~count:60 ~name:"uniformization matches the matrix exponential"
    (QCheck.make chain_gen)
    (fun (n, entries) ->
      QCheck.assume (entries <> []);
      let m = Chain.of_transitions ~states:n entries in
      let t = 1.3 in
      let pi = Transient.distribution m t in
      let e = Numeric.Expm.expm_generator (Chain_oracle.generator m) t in
      (* the initial distribution is the point mass on state 0 *)
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-8) pi e.(0))

let prop_bounded_until_in_unit_interval =
  QCheck.Test.make ~count:100 ~name:"until probabilities lie in [0,1]"
    (QCheck.make chain_gen)
    (fun (n, entries) ->
      QCheck.assume (entries <> []);
      let m = Chain.of_transitions ~states:n entries in
      let v =
        Reachability.bounded_until m
          ~phi:(fun s -> s mod 2 = 0)
          ~psi:(fun s -> s mod 3 = 0)
          ~bound:1.5
      in
      Array.for_all (fun p -> p >= -1e-9 && p <= 1. +. 1e-9) v)

let prop_steady_state_is_distribution =
  QCheck.Test.make ~count:100 ~name:"steady state is a distribution"
    (QCheck.make chain_gen)
    (fun (n, entries) ->
      QCheck.assume (entries <> []);
      let m = Chain.of_transitions ~states:n entries in
      Vec.is_distribution ~eps:1e-6 (Steady_state.solve m))

let prop_lumping_preserves_steady_state =
  QCheck.Test.make ~count:50 ~name:"lumping preserves block steady-state mass"
    (QCheck.make chain_gen)
    (fun (n, entries) ->
      QCheck.assume (entries <> []);
      let m = Chain.of_transitions ~states:n entries in
      let initial = Array.init n (fun s -> s mod 2) in
      let r = Lumping.lump m ~initial in
      let pi = Steady_state.solve m in
      let pi_q = Steady_state.solve r.Lumping.quotient in
      let projected = Lumping.project r pi in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) projected pi_q)

(* ------------------------------------------------------------------ *)
(* Analysis sessions: cached queries must match the fresh-chain path, and
   repeated queries must be served from the caches *)

(* reducible on purpose ({3,4} is the only BSCC) so the steady-state path
   exercises the BSCC decomposition and reachability caches too *)
let analysis_chain () =
  Chain.of_transitions ~states:5
    [
      (0, 1, 2.); (1, 0, 1.); (1, 2, 3.); (2, 1, 0.5); (2, 3, 1.5);
      (3, 4, 2.5); (4, 3, 1.);
    ]

(* [traced f] runs [f] with tracing on and returns its result with the
   [(name, args)] of every span it recorded *)
let traced f =
  let path = Filename.temp_file "arcade_ctmc_spans" ".json" in
  Obs.Trace.set_output (Some path);
  let result = Fun.protect ~finally:(fun () -> Obs.Trace.flush ()) f in
  Obs.Trace.set_output None;
  let text = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let events = match Json.parse text with Json.List evs -> evs | _ -> [] in
  ( result,
    List.filter_map
      (fun ev ->
        match (Json.string_field "name" ev, Json.member "args" ev) with
        | Some nm, args -> Some (nm, args)
        | None, _ -> None)
      events )

let check_vec msg expected actual =
  Array.iteri
    (fun i e -> check_close (Printf.sprintf "%s[%d]" msg i) e actual.(i))
    expected

let test_analysis_transient_equiv () =
  let m = analysis_chain () in
  let a = Analysis.create m in
  List.iter
    (fun t ->
      check_vec
        (Printf.sprintf "distribution t=%g" t)
        (Transient.distribution m t)
        (Transient.distribution ~analysis:a m t))
    [ 0.; 0.3; 1.7; 10. ];
  check_close "mass at t"
    (mass (fun s -> s >= 3) (Transient.distribution m 2.))
    (mass (fun s -> s >= 3) (Transient.distribution ~analysis:a m 2.))

let test_analysis_reachability_equiv () =
  let m = analysis_chain () in
  let a = Analysis.create m in
  let phi s = s <> 2 and psi s = s = 4 in
  check_vec "bounded until"
    (Reachability.bounded_until m ~phi ~psi ~bound:1.5)
    (Reachability.bounded_until ~analysis:a m ~phi ~psi ~bound:1.5);
  check_vec "interval until"
    (Reachability.interval_until m ~phi ~psi ~lower:0.5 ~upper:2.)
    (Reachability.interval_until ~analysis:a m ~phi ~psi ~lower:0.5 ~upper:2.);
  check_vec "unbounded until"
    (Reachability.unbounded_until m ~phi ~psi)
    (Reachability.unbounded_until ~analysis:a m ~phi ~psi)

let test_analysis_rewards_equiv () =
  let m = analysis_chain () in
  let a = Analysis.create m in
  let reward = Array.init (Chain.states m) (fun s -> float_of_int (s + 1)) in
  check_close "instantaneous"
    (Rewards.instantaneous m ~reward ~at:1.2)
    (Rewards.instantaneous ~analysis:a m ~reward ~at:1.2);
  check_close "accumulated"
    (Rewards.accumulated m ~reward ~upto:3.)
    (Rewards.accumulated ~analysis:a m ~reward ~upto:3.)

let test_analysis_steady_equiv () =
  let m = analysis_chain () in
  let expected = Steady_state.solve m in
  let count = Counts.start () in
  let a = Analysis.create m in
  check_vec "steady" expected (Steady_state.solve ~analysis:a m);
  ignore (Steady_state.solve ~analysis:a m);
  Alcotest.(check int) "one steady solve" 1 (count "steady_solves");
  Alcotest.(check bool) "second solve is a hit" true (count "steady_hits" >= 1)

let test_analysis_hit_counters () =
  let m = analysis_chain () in
  let a = Analysis.create m in
  let query () = mass (fun s -> s = 0) (Transient.distribution ~analysis:a m 2.) in
  let registry = Counts.start () in
  let (v1, (computes1, hits1), v2), spans =
    traced (fun () ->
        let v1 = query () in
        let c1 = (registry "weight_computes", registry "weight_hits") in
        (v1, c1, query ()))
  in
  check_close "identical queries agree" v1 v2;
  Alcotest.(check int) "one weight compute" 1 computes1;
  Alcotest.(check int) "still one weight compute" 1 (registry "weight_computes");
  Alcotest.(check bool) "weight fetch was a hit" true
    (registry "weight_hits" > hits1);
  (* both forward sweeps gather over the one cached R^T *)
  let count name = List.length (List.filter (fun (nm, _) -> nm = name) spans) in
  Alcotest.(check int) "two sweeps" 2 (count "analysis.mixture");
  Alcotest.(check int) "one R^T per session" 1 (count "analysis.transpose_rates")

(* time-bounded until asks [psi] once per state, and [phi] at most once
   per state, per query: one class scan feeds the mask and the target
   indicator *)
let test_until_predicates_once () =
  let m = analysis_chain () in
  let n = Chain.states m in
  let phi_calls = ref 0 and psi_calls = ref 0 in
  let phi s = incr phi_calls; s <> 1 and psi s = incr psi_calls; s = 4 in
  let check name query =
    phi_calls := 0;
    psi_calls := 0;
    ignore (query ());
    Alcotest.(check int) (name ^ ": psi once per state") n !psi_calls;
    Alcotest.(check bool) (name ^ ": phi at most once per state") true
      (!phi_calls <= n)
  in
  let a = Analysis.create m in
  check "bounded until" (fun () ->
      Reachability.bounded_until ~analysis:a m ~phi ~psi ~bound:1.);
  check "from init" (fun () ->
      [| Reachability.bounded_until_from_init ~analysis:a m ~phi ~psi ~bound:1. |]);
  check "curve" (fun () ->
      Array.of_list
        (List.map snd
           (Reachability.bounded_until_curve ~analysis:a m ~phi ~psi
              ~bounds:[ 0.5; 1. ])));
  check "interval until" (fun () ->
      Reachability.interval_until ~analysis:(Analysis.create m) m ~phi ~psi
        ~lower:0.5 ~upper:1.)

let expect_invalid_arg msg f =
  match f () with
  | _ -> Alcotest.fail (msg ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let test_analysis_weights_cache_hit () =
  (* the float-keyed weight cache must actually hit on repeat lookups *)
  let m = analysis_chain () in
  let a = Analysis.create m in
  let count = Counts.start () in
  ignore (Analysis.weights a 1.5);
  ignore (Analysis.weights a 1.5);
  ignore (Analysis.weights a 1.5);
  Alcotest.(check int) "one compute" 1 (count "weight_computes");
  Alcotest.(check int) "two hits" 2 (count "weight_hits")

let test_analysis_rejects_nan_keys () =
  (* NaN can never hit a float-keyed cache (nan <> nan), so it must be
     rejected at the session entry points instead of recomputing forever
     (or failing later as a bare Not_found) *)
  let m = analysis_chain () in
  let a = Analysis.create m in
  let count = Counts.start () in
  expect_invalid_arg "nan time" (fun () -> Analysis.weights a Float.nan);
  expect_invalid_arg "infinite time" (fun () ->
      Analysis.weights a Float.infinity);
  expect_invalid_arg "nan epsilon" (fun () ->
      Analysis.weights ~epsilon:Float.nan a 1.);
  expect_invalid_arg "zero epsilon" (fun () ->
      Analysis.weights ~epsilon:0. a 1.);
  expect_invalid_arg "nan tol" (fun () ->
      Analysis.cached_steady a ~tol:Float.nan (fun () ->
          Alcotest.fail "compute must not run"));
  expect_invalid_arg "negative tol" (fun () ->
      Analysis.cached_steady a ~tol:(-1e-9) (fun () ->
          Alcotest.fail "compute must not run"));
  expect_invalid_arg "nan batch time" (fun () ->
      let start = Array.make (Chain.states m) 0. in
      Analysis.poisson_mixture_batch a ~dir:Analysis.Forward
        [ { Analysis.start; coeff = Analysis.Pmf; times = [ 1.; Float.nan ] } ]);
  Alcotest.(check int) "nothing was computed" 0 (count "weight_computes")

let test_analysis_fnv1a64 () =
  (* reference vectors for the exported content hash *)
  Alcotest.(check int64) "empty" 0xcbf29ce484222325L (Analysis.fnv1a64 "");
  Alcotest.(check int64) "a" 0xaf63dc4c8601ec8cL (Analysis.fnv1a64 "a");
  Alcotest.(check int64) "foobar" 0x85944171f73967e8L
    (Analysis.fnv1a64 "foobar");
  Alcotest.(check bool) "content-sensitive" true
    (Analysis.fnv1a64 "model-a" <> Analysis.fnv1a64 "model-b")

let analysis_symmetric_chain () =
  (* two identical independent components (as in test_lump_symmetric_pair):
     states 0 = both up, 1/2 = one down, 3 = both down *)
  Chain.of_transitions ~states:4
    [
      (0, 1, 0.1); (0, 2, 0.1);
      (1, 0, 1.); (1, 3, 0.1);
      (2, 0, 1.); (2, 3, 0.1);
      (3, 1, 1.); (3, 2, 1.);
    ]

(* The quotient of an exactly lumpable partition answers every query on
   block-constant labels and rewards as the full chain does: the oracle
   behind symmetric builds. *)
let test_analysis_quotient_measures_agree () =
  let m = analysis_symmetric_chain () in
  let r = Lumping.lump m ~initial:[| 0; 1; 1; 2 |] in
  let q = r.Lumping.quotient in
  Alcotest.(check int) "3 blocks" 3 (Chain.states q);
  (* a block-constant predicate or vector, read off one member per block *)
  let on_blocks pred b = pred (List.hd r.Lumping.blocks.(b)) in
  let vec_on_blocks v = Array.map (fun members -> v.(List.hd members)) r.Lumping.blocks in
  let pred s = s = 1 || s = 2 in
  check_close "transient mass via quotient"
    (mass pred (Transient.distribution m 2.3))
    (mass (on_blocks pred) (Transient.distribution q 2.3));
  check_close "long-run mass via quotient"
    (Steady_state.long_run_probability m ~pred)
    (Steady_state.long_run_probability q ~pred:(on_blocks pred));
  let phi _ = true and psi s = s = 3 in
  check_vec "bounded until via quotient"
    (Reachability.bounded_until m ~phi ~psi ~bound:1.7)
    (Lumping.lift r
       (Reachability.bounded_until q ~phi:(on_blocks phi) ~psi:(on_blocks psi)
          ~bound:1.7));
  List.iter2
    (fun (t1, p1) (t2, p2) ->
      check_close "curve times match" t1 t2;
      check_close "bounded until curve via quotient" p1 p2)
    (Reachability.bounded_until_curve m ~phi ~psi ~bounds:[ 0.5; 1.; 2. ])
    (Reachability.bounded_until_curve q ~phi:(on_blocks phi) ~psi:(on_blocks psi)
       ~bounds:[ 0.5; 1.; 2. ]);
  let reward = [| 2.; 5.; 5.; 11. |] in
  let qreward = vec_on_blocks reward in
  check_close "instantaneous reward via quotient"
    (Rewards.instantaneous m ~reward ~at:1.2)
    (Rewards.instantaneous q ~reward:qreward ~at:1.2);
  check_close "accumulated reward via quotient"
    (Rewards.accumulated m ~reward ~upto:3.)
    (Rewards.accumulated q ~reward:qreward ~upto:3.);
  check_close "steady reward via quotient"
    (Rewards.steady_state m ~reward)
    (Rewards.steady_state q ~reward:qreward)

let test_analysis_wrong_chain_ignored () =
  let m = analysis_chain () in
  let a = Analysis.create (two_state 1. 2.) in
  let expected = Transient.distribution m 1. in
  let count = Counts.start () in
  check_vec "foreign session falls back to fresh" expected
    (Transient.distribution ~analysis:a m 1.);
  (* the one pass is the fresh session's: the foreign one swept nothing *)
  Alcotest.(check int) "foreign session untouched" 1 (count "mixture_passes")

(* ------------------------------------------------------------------ *)
(* The multi-time-point kernel: one shared sweep must match per-point
   evaluation, preserve the caller's times 1:1, and actually save SpMVs *)

let multi_times = [ 0.4; 1.1; 2.6; 5.; 9.3 ]

let test_multi_kernel_matches_single () =
  let m = analysis_chain () in
  let a = Analysis.create m in
  let start = Chain.initial m in
  List.iter
    (fun (dir, coeff, label) ->
      let multi = mixture a ~dir ~coeff start ~times:multi_times in
      List.iter2
        (fun t v ->
          check_vec
            (Printf.sprintf "%s t=%g" label t)
            (List.hd (mixture a ~dir ~coeff start ~times:[ t ]))
            v)
        multi_times multi)
    [
      (Analysis.Forward, Analysis.Pmf, "forward pmf");
      (Analysis.Backward, Analysis.Pmf, "backward pmf");
      (Analysis.Forward, Analysis.Tail_over_lambda, "forward tail");
    ]

let test_multi_kernel_times_contract () =
  let m = analysis_chain () in
  let a = Analysis.create m in
  let start = Chain.initial m in
  let run times = mixture a ~dir:Analysis.Forward ~coeff:Analysis.Pmf start ~times in
  Alcotest.(check int) "empty times" 0 (List.length (run []));
  (* unsorted input: results aligned with the caller's order *)
  let unsorted = [ 2.6; 0.4; 9.3 ] in
  List.iter2
    (fun t v ->
      check_vec
        (Printf.sprintf "unsorted t=%g" t)
        (Transient.distribution m t) v)
    unsorted (run unsorted);
  (* duplicates: every occurrence gets its own independent vector *)
  (match run [ 1.1; 1.1 ] with
  | [ v1; v2 ] ->
      check_vec "duplicates agree" v1 v2;
      Alcotest.(check bool) "duplicates are distinct vectors" false (v1 == v2);
      v1.(0) <- 42.;
      check_close "mutating one leaves the other" (Transient.distribution m 1.1).(0)
        v2.(0)
  | _ -> Alcotest.fail "expected two points");
  (* time zero inside a list *)
  (match run [ 0.; 1.1 ] with
  | [ v0; _ ] -> check_vec "t=0 is the start vector" start v0
  | _ -> Alcotest.fail "expected two points");
  Alcotest.check_raises "negative time"
    (Invalid_argument
       "Analysis.poisson_mixture_batch: times must be finite and non-negative \
        (got -2)") (fun () ->
      ignore (run [ 1.; -2. ]))

let test_multi_kernel_counters () =
  let m = analysis_chain () in
  let a = Analysis.create m in
  let start = Chain.initial m in
  let multi = Counts.start () in
  ignore (mixture a ~dir:Analysis.Forward ~coeff:Analysis.Pmf start ~times:multi_times);
  let multi_passes = multi "mixture_passes" and multi_steps = multi "mixture_steps" in
  Alcotest.(check int) "one pass for the whole curve" 1 multi_passes;
  let b = Analysis.create m in
  let seq = Counts.start () in
  List.iter
    (fun t ->
      ignore (mixture b ~dir:Analysis.Forward ~coeff:Analysis.Pmf start ~times:[ t ]))
    multi_times;
  Alcotest.(check int) "one pass per point" (List.length multi_times)
    (seq "mixture_passes");
  Alcotest.(check bool) "multi does fewer SpMVs" true
    (multi_steps < seq "mixture_steps")

let test_curve_preserves_times () =
  let m = two_state 1.5 0.5 in
  let times = [ 3.; 0.5; 3.; 0. ] in
  let curve =
    mixture (Analysis.create m) ~dir:Analysis.Forward ~coeff:Analysis.Pmf
      (Chain.initial m) ~times
  in
  Alcotest.(check int) "one point per time (order and duplicates)"
    (List.length times) (List.length curve);
  List.iter2
    (fun t pi ->
      check_vec (Printf.sprintf "point at t=%g" t) (Transient.distribution m t) pi)
    times curve;
  let reward = [| 1.; 4. |] in
  Alcotest.(check (list (float 0.)))
    "instantaneous curve aligned" times
    (List.map fst (Rewards.instantaneous_curve m ~reward ~times));
  Alcotest.(check (list (float 0.)))
    "accumulated curve aligned" times
    (List.map fst (Rewards.accumulated_curve m ~reward ~times));
  Alcotest.(check (list (float 0.)))
    "bounded-until curve aligned" times
    (List.map fst
       (Reachability.bounded_until_curve m
          ~phi:(fun _ -> true)
          ~psi:(fun s -> s = 1)
          ~bounds:times))

(* ------------------------------------------------------------------ *)
(* The blocked (multi-stream) kernel and the batch entry points built on
   it: one width-K sweep must match K independent single-stream sweeps *)

let test_batch_kernel_matches_multi () =
  let m = analysis_chain () in
  let a = Analysis.create m in
  let n = Chain.states m in
  let start = Chain.initial m in
  let other = Numeric.Vec.unit n 2 in
  let batches =
    [
      { Analysis.start; coeff = Analysis.Pmf; times = multi_times };
      { Analysis.start; coeff = Analysis.Tail_over_lambda; times = multi_times };
      { Analysis.start = other; coeff = Analysis.Pmf; times = [ 0.; 2.6 ] };
    ]
  in
  let count = Counts.start () in
  let results = Analysis.poisson_mixture_batch a ~dir:Analysis.Forward batches in
  Alcotest.(check int) "one blocked pass" 1 (count "mixture_passes");
  Alcotest.(check int) "three columns" 3 (count "batch_columns");
  List.iter2
    (fun b vs ->
      let singles =
        mixture a ~dir:Analysis.Forward ~coeff:b.Analysis.coeff b.Analysis.start
          ~times:b.Analysis.times
      in
      List.iteri
        (fun i (single, batched) ->
          check_vec (Printf.sprintf "stream point %d" i) single batched)
        (List.combine singles vs))
    batches results

let test_transient_batch_entries () =
  let m = analysis_chain () in
  let n = Chain.states m in
  let a = Analysis.create m in
  let batch ~dir starts times =
    Analysis.poisson_mixture_batch a ~dir
      (List.map (fun start -> { Analysis.start; coeff = Analysis.Pmf; times }) starts)
  in
  let starts = [ Chain.initial m; Numeric.Vec.unit n 3 ] in
  let times = [ 0.; 0.7; 4.2 ] in
  List.iter2
    (fun start vs ->
      List.iter2
        (fun t v ->
          check_vec
            (Printf.sprintf "forward batch t=%g" t)
            (Transient.distribution (Chain.with_init m start) t)
            v)
        times vs)
    starts
    (batch ~dir:Analysis.Forward starts times);
  let values = [ [| 1.; 0.; 0.; 0.; 0. |]; [| 0.; 0.5; 0.; 0.; 2. |] ] in
  List.iter2
    (fun v u ->
      check_vec "backward batch"
        (List.hd
           (mixture (Analysis.create m) ~dir:Analysis.Backward ~coeff:Analysis.Pmf
              v ~times:[ 1.3 ]))
        u)
    values
    (List.map List.hd (batch ~dir:Analysis.Backward values [ 1.3 ]))

let test_rewards_both_curves () =
  let m = analysis_chain () in
  let reward = Array.init (Chain.states m) (fun s -> float_of_int (2 * s) +. 1.) in
  let times = [ 0.; 0.9; 3.3; 7. ] in
  let inst, acc = Rewards.both_curves m ~reward ~times in
  List.iter2
    (fun (t1, v1) (t2, v2) ->
      check_close "inst times aligned" t1 t2;
      check_close ~eps:1e-12 (Printf.sprintf "inst t=%g" t1) v1 v2)
    (Rewards.instantaneous_curve m ~reward ~times)
    inst;
  List.iter2
    (fun (t1, v1) (t2, v2) ->
      check_close "acc times aligned" t1 t2;
      check_close ~eps:1e-12 (Printf.sprintf "acc t=%g" t1) v1 v2)
    (Rewards.accumulated_curve m ~reward ~times)
    acc

let test_long_run_probabilities () =
  (* reducible chain: every predicate asked of one session reads the one
     multi-RHS BSCC-weight solve, and is the mass of its distribution *)
  let m = analysis_chain () in
  let a = Analysis.create m in
  let preds =
    [ (fun s -> s = 0); (fun s -> s >= 3); (fun s -> s mod 2 = 1) ]
  in
  let count = Counts.start () in
  let pi = Steady_state.solve ~analysis:a m in
  List.iter
    (fun pred ->
      check_close ~eps:0. "long-run mass" (mass pred pi)
        (Steady_state.long_run_probability ~analysis:a m ~pred))
    preds;
  Alcotest.(check int) "one steady solve" 1 (count "steady_solves")

let test_unbounded_until_scc_order () =
  (* layered DAG: i -> i+1 and i -> trap, with the goal at the chain's
     end. Natural-order Gauss-Seidel propagates the goal value roughly one
     layer per sweep; the SCC topological order (successors first) needs a
     couple of sweeps. Both must land on the same fixpoint. *)
  let n = 40 in
  let trap = n and goal = n - 1 in
  let transitions =
    List.concat
      (List.init (n - 1) (fun i -> [ (i, i + 1, 1.); (i, trap, 0.3) ]))
  in
  let m = Chain.of_transitions ~states:(n + 1) transitions in
  let psi s = s = goal in
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let v_nat = Reachability.eventually ~scc_order:false m ~psi in
  let v_scc = Reachability.eventually m ~psi in
  Obs.Metrics.set_enabled was;
  let iters =
    List.filter_map (fun s ->
        if s.Obs.Metrics.solver = "gauss_seidel" then
          Some s.Obs.Metrics.iterations
        else None)
      (Obs.Metrics.snapshot ()).Obs.Metrics.solves
  in
  (match iters with
  | [ natural; ordered ] ->
      Alcotest.(check bool)
        (Printf.sprintf "scc order needs fewer sweeps (%d < %d)" ordered
           natural)
        true (ordered < natural)
  | _ -> Alcotest.fail "expected exactly two recorded gauss_seidel solves");
  Array.iteri
    (fun s v ->
      check_close ~eps:1e-11 (Printf.sprintf "fixpoint state %d" s) v
        v_scc.(s))
    v_nat

(* ------------------------------------------------------------------ *)
(* The reward-projected face of the kernel: every point must equal the
   vector face dotted with the same reward, with the same work counters *)

let close_rel a b =
  Float.abs (a -. b) <= 1e-12 *. Float.max (Float.abs a) (Float.abs b)

(* [faces_agree m ~reward ~times] runs both coefficient kinds in both
   directions through the two faces on fresh sessions *)
let faces_agree m ~reward ~times =
  let init = Chain.initial m in
  List.for_all
    (fun dir ->
      let start, r =
        match dir with
        | Analysis.Forward -> (init, reward)
        | Analysis.Backward -> (reward, init)
      in
      let batches =
        List.map
          (fun coeff -> { Analysis.start; coeff; times })
          [ Analysis.Pmf; Analysis.Tail_over_lambda ]
      in
      let work f =
        let count = Counts.start () in
        let x = f (Analysis.create m) in
        (x, List.map count [ "mixture_passes"; "mixture_steps"; "batch_columns" ])
      in
      let vectors, wv =
        work (fun av -> Analysis.poisson_mixture_batch av ~dir batches)
      in
      let values, wp =
        work (fun ap ->
            Analysis.poisson_mixture_values ap ~dir
              (List.map (fun b -> (b, r)) batches))
      in
      wv = wp
      && List.for_all2
           (fun vs xs ->
             List.length xs = List.length times
             && List.for_all2 (fun v x -> close_rel (Vec.dot v r) x) vs xs)
           vectors values)
    [ Analysis.Forward; Analysis.Backward ]

let prop_projected_matches_vector =
  QCheck.Test.make ~count:100
    ~name:"values face = vector face dotted with the reward"
    (QCheck.make
       QCheck.Gen.(
         pair chain_gen
           (list_size (int_range 0 6) (oneofl [ 0.; 0.3; 1.; 2.5; 4. ]))))
    (fun ((n, entries), times) ->
      QCheck.assume (entries <> []);
      let m = Chain.of_transitions ~states:n entries in
      let reward = Array.init n (fun s -> float_of_int ((3 * s) mod 5) +. 0.5) in
      faces_agree m ~reward ~times)

let test_projected_contract () =
  let m = analysis_chain () in
  let a = Analysis.create m in
  let n = Chain.states m in
  let start = Chain.initial m in
  let reward = Array.init n (fun s -> float_of_int s +. 1.) in
  let run coeff times =
    match
      Analysis.poisson_mixture_values a ~dir:Analysis.Forward
        [ ({ Analysis.start; coeff; times }, reward) ]
    with
    | [ xs ] -> xs
    | _ -> Alcotest.fail "expected one stream"
  in
  Alcotest.(check int) "no streams" 0
    (List.length (Analysis.poisson_mixture_values a ~dir:Analysis.Forward []));
  Alcotest.(check int) "empty times" 0 (List.length (run Analysis.Pmf []));
  (match run Analysis.Pmf [ 0.; 2.6; 0.4; 2.6 ] with
  | [ x0; x1; x2; x3 ] ->
      check_close ~eps:0. "t=0 pmf is <start, r>" (Vec.dot start reward) x0;
      check_close ~eps:0. "duplicates agree" x1 x3;
      check_close ~eps:1e-12 "unsorted point"
        (Vec.dot (Transient.distribution m 0.4) reward)
        x2
  | _ -> Alcotest.fail "expected four points");
  (match run Analysis.Tail_over_lambda [ 0.; 1.1 ] with
  | [ x0; x1 ] ->
      check_close ~eps:0. "t=0 tail is 0" 0. x0;
      check_close ~eps:1e-12 "accumulated point"
        (Rewards.accumulated m ~reward ~upto:1.1)
        x1
  | _ -> Alcotest.fail "expected two points");
  Alcotest.(check bool) "zero-only times do no sweep" true
    (let count = Counts.start () in
     ignore (run Analysis.Pmf [ 0.; 0. ]);
     count "mixture_passes" = 0);
  expect_invalid_arg "reward dimension" (fun () ->
      Analysis.poisson_mixture_values a ~dir:Analysis.Forward
        [ ({ Analysis.start; coeff = Analysis.Pmf; times = [ 1. ] }, [| 1. |]) ])

(* Every single-time and batch entry point of the kernel rejects negative,
   NaN and infinite times under its own name, before any work. *)
let test_rejects_bad_time (who, run) () =
  List.iter
    (fun bad ->
      match run bad with
      | _ -> Alcotest.failf "%s accepted time %g" who bad
      | exception Invalid_argument msg ->
          let prefix = who ^ ": " in
          Alcotest.(check bool)
            (Printf.sprintf "%s names %s" msg who)
            true
            (String.length msg >= String.length prefix
            && String.sub msg 0 (String.length prefix) = prefix))
    [ -1.; Float.nan; Float.infinity ]

(* each scalar curve entry point rejects negative, NaN and infinite times
   under its own name *)
let test_curve_rejects_bad_times (who, run) () =
  test_rejects_bad_time (who, fun bad -> run [ 1.; bad ]) ()

let curve_entry_points =
  let m = analysis_chain () in
  let reward = Array.init (Chain.states m) float_of_int in
  let ignore_curve f times = ignore (f times : (float * float) list) in
  [
    ( "Rewards.instantaneous_curve",
      ignore_curve (fun times -> Rewards.instantaneous_curve m ~reward ~times) );
    ( "Rewards.accumulated_curve",
      ignore_curve (fun times -> Rewards.accumulated_curve m ~reward ~times) );
    ( "Rewards.both_curves",
      ignore_curve (fun times -> fst (Rewards.both_curves m ~reward ~times)) );
    ( "Reachability.bounded_until_curve",
      ignore_curve (fun bounds ->
          Reachability.bounded_until_curve m
            ~phi:(fun _ -> true)
            ~psi:(fun s -> s = 4)
            ~bounds) );
  ]

(* ------------------------------------------------------------------ *)
(* The on-the-fly gather against the explicit operator: the batched
   kernel, which uniformizes the rates as it gathers, must reproduce the
   sweep spelled out one step at a time with the single-vector scatter
   [Sparse.vec_mul] (forward) and gather [Sparse.mul_vec] (backward) over
   the uniformized matrix P, within 1e-12 — the scalings round
   differently — at width 1 and at width k *)

let close_within eps a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a b

let reference_mixture m ~dir ~coeff start time =
  let lambda, p = Chain.uniformized m in
  let w = Numeric.Fox_glynn.compute ~epsilon:1e-12 (lambda *. time) in
  let { Numeric.Fox_glynn.left; right; weights; _ } = w in
  let coeff_at, last =
    match coeff with
    | Analysis.Pmf ->
        ((fun k -> if k >= left then weights.(k - left) else 0.), right)
    | Analysis.Tail_over_lambda ->
        let tail = Numeric.Fox_glynn.cumulative_tail w in
        let total = Numeric.Fox_glynn.total_mass w in
        ( (fun k ->
            (if k + 1 <= left then total else tail.(k + 1 - left)) /. lambda),
          right - 1 )
  in
  let acc = Vec.zeros (Chain.states m) in
  let v = ref (Vec.copy start) in
  for k = 0 to last do
    let c = coeff_at k in
    if c <> 0. then Array.iteri (fun i x -> acc.(i) <- acc.(i) +. (c *. x)) !v;
    if k < last then
      v :=
        match dir with
        | Analysis.Forward -> Numeric.Sparse.vec_mul !v p
        | Analysis.Backward -> Numeric.Sparse.mul_vec p !v
  done;
  acc

let check_batch_matches_reference ~dir starts () =
  let times = [ 0.4; 2.6; 9. ] in
  List.iter
    (fun m ->
      let n = Chain.states m in
      let starts = starts n in
      List.iter
        (fun coeff ->
          let a = Analysis.create m in
          let run starts =
            Analysis.poisson_mixture_batch a ~dir
              (List.map (fun start -> { Analysis.start; coeff; times }) starts)
          in
          let blocked = run starts
          and solo = List.map (fun start -> List.hd (run [ start ])) starts in
          List.iteri
            (fun s (start, (vs, solo_vs)) ->
              List.iter2
                (fun t (v, solo_v) ->
                  let reference = reference_mixture m ~dir ~coeff start t in
                  let what = Printf.sprintf "%d states, stream %d, t=%g" n s t in
                  Alcotest.(check bool) (what ^ ", width k") true
                    (close_within 1e-12 reference v);
                  Alcotest.(check bool) (what ^ ", width 1") true
                    (close_within 1e-12 reference solo_v))
                times (List.combine vs solo_vs))
            (List.combine starts (List.combine blocked solo)))
        [ Analysis.Pmf; Analysis.Tail_over_lambda ])
    [ analysis_chain (); ring_chain () ]

(* five distinct starts: a block of width 5 runs a register group of 4
   and one of 1 *)
let forward_starts n =
  Array.make n (1. /. float_of_int n)
  :: List.init 4 (fun i -> Vec.unit n (((3 * i) + 1) mod n))

let backward_starts n =
  List.init 4 (fun i -> Array.init n (fun s -> if s mod 4 = i then 1. else 0.))
  @ [ Array.init n (fun s -> float_of_int ((3 * s) mod 5) /. 7.) ]

(* [mixture_spans f] is [f]'s result with the [(batch_width, streams)]
   attributes of every [analysis.mixture] and [mixture.sweep] span *)
let mixture_spans f =
  let result, spans = traced f in
  let attr args key =
    match Option.bind args (Json.member key) with
    | Some (Json.Num x) -> int_of_float x
    | _ -> -1
  in
  let named name =
    List.filter_map
      (fun (nm, args) ->
        if nm = name then Some (attr args "batch_width", attr args "streams")
        else None)
      spans
  in
  (result, named "analysis.mixture", named "mixture.sweep")

(* ------------------------------------------------------------------ *)
(* Absorbing-row masks against the absorbed chain: a masked pass over the
   session's own rates must match the plain P loop over
   [Chain_oracle.absorbing] (its own lambda, its own P) within 1e-12 *)

let absorbed_reference m ~absorbing ~dir ~coeff start t =
  if t = 0. then
    match coeff with
    | Analysis.Pmf -> Vec.copy start
    | Analysis.Tail_over_lambda -> Vec.zeros (Chain.states m)
  else reference_mixture (Chain_oracle.absorbing m ~pred:absorbing) ~dir ~coeff start t

let masked_gen =
  QCheck.Gen.(
    let* n, entries = chain_gen in
    let flags weight = map Array.of_list (list_size (return n) weight) in
    let* phi = flags (frequency [ (3, return true); (1, return false) ]) in
    let* psi = flags (frequency [ (1, return true); (3, return false) ]) in
    let* init = flags (float_range 0. 1.) in
    return (n, entries, phi, psi, init))

let masked_chain (n, entries, _, _, init) =
  let total = Array.fold_left ( +. ) 0. init in
  let init =
    if total > 0. then Array.map (fun x -> x /. total) init else Vec.unit n 0
  in
  Chain.of_transitions ~init ~states:n entries

let masked_times = [ 0.; 0.3; 1.7; 6. ]

let prop_until_matches_absorbed =
  QCheck.Test.make ~count:200 ~name:"until over a mask = absorbed-chain loop"
    (QCheck.make masked_gen)
    (fun ((n, entries, phi, psi, _) as case) ->
      QCheck.assume (entries <> []);
      let m = masked_chain case in
      let phi s = phi.(s) and psi s = psi.(s) in
      let absorbing s = psi s || not (phi s) in
      let goal = Array.init n (fun s -> if psi s then 1. else 0.) in
      let a = Analysis.create m in
      List.for_all
        (fun (t, p) ->
          let pi =
            absorbed_reference m ~absorbing ~dir:Analysis.Forward
              ~coeff:Analysis.Pmf (Chain.initial m) t
          in
          Float.abs (p -. Vec.dot pi goal) <= 1e-12)
        (Reachability.bounded_until_curve ~analysis:a m ~phi ~psi
           ~bounds:masked_times)
      && List.for_all
           (fun t ->
             close_within 1e-12
               (absorbed_reference m ~absorbing ~dir:Analysis.Backward
                  ~coeff:Analysis.Pmf goal t)
               (Reachability.bounded_until ~analysis:a m ~phi ~psi ~bound:t))
           masked_times)

(* the values face over a mask with a reward that is non-zero on both
   sides of it, both coefficient kinds, both directions *)
let prop_masked_values_match_absorbed =
  QCheck.Test.make ~count:200 ~name:"masked values face = absorbed-chain loop"
    (QCheck.make masked_gen)
    (fun ((n, entries, _, psi, _) as case) ->
      QCheck.assume (entries <> []);
      let m = masked_chain case in
      let absorbing s = psi.(s) in
      let reward = Array.init n (fun s -> float_of_int ((3 * s) mod 5) +. 0.5) in
      let a = Analysis.create m in
      let mask = Analysis.absorbing a absorbing in
      List.for_all
        (fun (dir, start) ->
          List.for_all
            (fun coeff ->
              match
                Analysis.poisson_mixture_values ~absorbing:mask a ~dir
                  [ ({ Analysis.start; coeff; times = masked_times }, reward) ]
              with
              | [ values ] ->
                  List.for_all2
                    (fun t x ->
                      let v = absorbed_reference m ~absorbing ~dir ~coeff start t in
                      let y = Vec.dot v reward in
                      Float.abs (x -. y) <= 1e-12 *. Float.max 1. (Float.abs y))
                    masked_times values
              | _ -> false)
            [ Analysis.Pmf; Analysis.Tail_over_lambda ])
        [ (Analysis.Forward, Chain.initial m); (Analysis.Backward, reward) ])

let test_mask_edge_cases () =
  let m = analysis_chain () in
  let n = Chain.states m in
  let a = Analysis.create m in
  let times = [ 0.4; 2.6 ] in
  let reward = Array.init n (fun s -> float_of_int s +. 1.) in
  let values ?absorbing dir start =
    List.hd
      (Analysis.poisson_mixture_values ?absorbing a ~dir
         [ ({ Analysis.start; coeff = Analysis.Pmf; times }, reward) ])
  in
  (* an empty mask is no mask *)
  let none = Analysis.absorbing a (fun _ -> false) in
  List.iter
    (fun (dir, start) ->
      Alcotest.(check bool) "empty mask, values bit for bit" true
        (same_bits
           (Array.of_list (values dir start))
           (Array.of_list (values ~absorbing:none dir start))))
    [ (Analysis.Forward, Chain.initial m); (Analysis.Backward, reward) ];
  Alcotest.(check bool) "empty mask, backward vectors bit for bit" true
    (List.for_all2 same_bits
       (List.hd
          (Analysis.poisson_mixture_batch a ~dir:Analysis.Backward
             [ { Analysis.start = reward; coeff = Analysis.Pmf; times } ]))
       (List.hd
          (Analysis.poisson_mixture_batch ~absorbing:none a ~dir:Analysis.Backward
             [ { Analysis.start = reward; coeff = Analysis.Pmf; times } ])));
  (* every state masked: the floor rate, and nothing moves *)
  let phi _ = false and psi s = s >= 3 in
  let init = Array.init n (fun s -> float_of_int (s + 1) /. 15.) in
  let m' = Chain.with_init m init in
  List.iter
    (fun (_, p) -> check_close ~eps:1e-15 "all masked: psi mass stays" 0.6 p)
    (Reachability.bounded_until_curve m' ~phi ~psi ~bounds:times);
  check_vec "all masked: backward keeps the goal"
    [| 0.; 0.; 0.; 1.; 1. |]
    (Reachability.bounded_until m ~phi ~psi ~bound:2.6);
  (* initial mass inside psi is reached at time 0 and kept (up to the
     Fox-Glynn truncation) *)
  let psi s = s = 1 in
  List.iter
    (fun (_, p) -> check_close ~eps:1e-12 "start in psi" 1. p)
    (Reachability.bounded_until_curve (Chain.with_init m (Vec.unit n 1))
       ~phi:(fun _ -> true) ~psi ~bounds:(0. :: times));
  (* phi <> true: not-phi states absorb without counting; the masked
     pass runs the absorbed chain's step count *)
  let phi s = s <> 2 and psi s = s = 4 in
  let absorbing s = psi s || not (phi s) in
  let absorbed = Chain_oracle.absorbing m ~pred:absorbing in
  let reference = Analysis.create absorbed in
  let goal = Array.init n (fun s -> if psi s then 1. else 0.) in
  let reference_count = Counts.start () in
  let expected =
    List.hd
      (Analysis.poisson_mixture_values reference ~dir:Analysis.Forward
         [ ({ Analysis.start = Chain.initial m; coeff = Analysis.Pmf; times }, goal) ])
  in
  let reference_steps = reference_count "mixture_steps" in
  let count = Counts.start () in
  List.iter2
    (fun e (_, p) -> check_close ~eps:1e-12 "phi constraint" e p)
    expected
    (Reachability.bounded_until_curve ~analysis:a m ~phi ~psi ~bounds:times);
  Alcotest.(check int) "absorbed chain's step count" reference_steps
    (count "mixture_steps");
  Alcotest.(check int) "one pass, one column" 1 (count "batch_columns");
  let m = analysis_symmetric_chain () in
  (* a mask belongs to its session's chain, and a forward vector pass
     takes none *)
  expect_invalid_arg "mask of another chain" (fun () ->
      Analysis.poisson_mixture_values ~absorbing:none (Analysis.create m)
        ~dir:Analysis.Backward
        [ ({ Analysis.start = Vec.zeros 4; coeff = Analysis.Pmf; times }, Vec.zeros 4) ]);
  expect_invalid_arg "forward vector face" (fun () ->
      Analysis.poisson_mixture_batch ~absorbing:none a ~dir:Analysis.Forward
        [ { Analysis.start = Chain.initial (analysis_chain ()); coeff = Analysis.Pmf; times } ])

let test_equal_starts_share_column () =
  let m = ring_chain () in
  let n = Chain.states m in
  let start = Chain.initial m and twin = Vec.copy (Chain.initial m) in
  let reward = Array.init n (fun s -> float_of_int (s mod 3) +. 0.5) in
  let times = [ 0.7; 2.6 ] in
  let pmf = { Analysis.start; coeff = Analysis.Pmf; times } in
  let tail =
    { Analysis.start = twin; coeff = Analysis.Tail_over_lambda; times }
  in
  let run_vectors bs =
    Analysis.poisson_mixture_batch (Analysis.create m) ~dir:Analysis.Forward bs
  in
  let run_values bs =
    Analysis.poisson_mixture_values (Analysis.create m) ~dir:Analysis.Forward
      bs
  in
  let vectors, mix, sweep = mixture_spans (fun () -> run_vectors [ pmf; tail ]) in
  let one_column = [ (1, 2) ] in
  Alcotest.(check (list (pair int int))) "mixture span: width 1, 2 streams"
    one_column mix;
  Alcotest.(check (list (pair int int))) "sweep span: width 1, 2 streams"
    one_column sweep;
  List.iter2
    (fun solo shared ->
      List.iter2
        (fun u v -> Alcotest.(check bool) "shared = solo" true (same_bits u v))
        solo shared)
    (run_vectors [ pmf ] @ run_vectors [ tail ])
    vectors;
  (* the first two streams share a dot; the third rides the same column
     with another reward *)
  let other = Array.init n (fun s -> float_of_int (s mod 5)) in
  let values, mix, _ =
    mixture_spans (fun () ->
        run_values [ (pmf, reward); (tail, Vec.copy reward); (pmf, other) ])
  in
  Alcotest.(check (list (pair int int))) "values face: width 1, 3 streams"
    [ (1, 3) ] mix;
  List.iter2
    (fun solo shared ->
      List.iter2
        (fun x y -> check_close ~eps:0. "shared value = solo" x y)
        solo shared)
    (run_values [ (pmf, reward) ]
    @ run_values [ (tail, reward) ]
    @ run_values [ (pmf, other) ])
    values

let test_signed_zeros_do_not_share () =
  let m = analysis_chain () in
  let start = [| 1.; 0.; 0.; 0.; 0. |] in
  let negative = [| 1.; 0.; -0.; 0.; 0. |] in
  let _, mix, sweep =
    mixture_spans (fun () ->
        Analysis.poisson_mixture_batch (Analysis.create m)
          ~dir:Analysis.Forward
          [
            { Analysis.start; coeff = Analysis.Pmf; times = [ 1. ] };
            { Analysis.start = negative; coeff = Analysis.Pmf; times = [ 1. ] };
          ])
  in
  Alcotest.(check (list (pair int int))) "two columns" [ (2, 2) ] mix;
  Alcotest.(check (list (pair int int))) "sweep: two columns" [ (2, 2) ] sweep

let time_entry_points =
  let m = analysis_chain () in
  let n = Chain.states m in
  let a = Analysis.create m in
  let start = Chain.initial m in
  let reward = Array.init n float_of_int in
  let drop f t = ignore (f t) in
  [
    ( "Analysis.poisson_mixture_batch",
      drop (fun t ->
          Analysis.poisson_mixture_batch a ~dir:Analysis.Forward
            [ { Analysis.start; coeff = Analysis.Pmf; times = [ 1.; t ] } ]) );
    ("Transient.distribution", drop (Transient.distribution m));
    ( "Rewards.accumulated",
      drop (fun upto -> Rewards.accumulated m ~reward ~upto) );
  ]

(* ------------------------------------------------------------------ *)
(* Steady state from the rates: differential checks against the
   generator path it replaced (Q built, transposed through the triplet
   Builder, swept with a per-entry closure over the rows of Q^T) *)

let builder_transpose m =
  let n = Numeric.Sparse.rows m in
  let b = Numeric.Sparse.Builder.create ~rows:n ~cols:n in
  Numeric.Sparse.iteri m (fun i j x -> Numeric.Sparse.Builder.add b j i x);
  Numeric.Sparse.Builder.to_csr b

(* the former stationary Gauss-Seidel on a generator: [(pi, sweeps)] *)
let generator_steady ?(tol = 1e-12) q =
  let n = Numeric.Sparse.rows q in
  let qt = builder_transpose q in
  let d = Vec.zeros n in
  Numeric.Sparse.iteri q (fun i j x -> if i = j then d.(i) <- d.(i) +. x);
  let pi = Vec.create n (1. /. float_of_int n) in
  let rec sweep iter =
    let delta = ref 0. in
    for j = 0 to n - 1 do
      let acc = ref 0. in
      Numeric.Sparse.iter_row qt j (fun i v ->
          if i <> j then acc := !acc +. (v *. pi.(i)));
      let pj = !acc /. -.d.(j) in
      let change = Float.abs (pj -. pi.(j)) in
      if change > !delta then delta := change;
      pi.(j) <- pj
    done;
    Vec.normalize_l1 pi;
    if !delta <= tol then iter
    else if iter >= 100_000 then failwith "generator_steady: no convergence"
    else sweep (iter + 1)
  in
  let sweeps = if n = 1 then 0 else sweep 1 in
  (pi, sweeps)

(* the former local generator of a recurrent class, indexed through a
   Hashtbl in member order *)
let generator_of_class m members =
  let k = Array.length members in
  let index = Hashtbl.create k in
  Array.iteri (fun i s -> Hashtbl.replace index s i) members;
  let b = Numeric.Sparse.Builder.create ~rows:k ~cols:k in
  Array.iteri
    (fun i s ->
      Numeric.Sparse.iter_row (Chain.rates m) s (fun j r ->
          let jj = Hashtbl.find index j in
          Numeric.Sparse.Builder.add b i jj r;
          Numeric.Sparse.Builder.add b i i (-.r)))
    members;
  Numeric.Sparse.Builder.to_csr b

(* a ring through every state (irreducible) plus random chords *)
let irreducible_gen ~max_states ~rate =
  QCheck.Gen.(
    let* n = int_range 2 max_states in
    let* ring = list_repeat n rate in
    let* chords =
      list_size (int_range 0 (3 * n))
        (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) rate)
    in
    return
      ( n,
        List.mapi (fun i r -> (i, (i + 1) mod n, r)) ring
        @ List.filter (fun (i, j, _) -> i <> j) chords ))

let prop_steady_rates_match_generator =
  QCheck.Test.make ~count:300 ~name:"rates solve = Q^T path, bitwise"
    (QCheck.make
       (irreducible_gen ~max_states:30
          ~rate:QCheck.Gen.(oneof [ float_range 0.01 5.; float_range 5. 80. ])))
    (fun (n, entries) ->
      let m = Chain.of_transitions ~states:n entries in
      let expected, sweeps = generator_steady (Chain_oracle.generator m) in
      let pi, c =
        Numeric.Solver.steady_state_gauss_seidel ~exit:(Chain.exit_rates m)
          (Numeric.Sparse.transpose (Chain.rates m))
      in
      c.Numeric.Solver.iterations = sweeps
      && same_bits expected pi
      && same_bits expected (Steady_state.solve m))

(* Closed classes (rings with chords) after a few transient states, each
   of which feeds some class; the initial mass is spread over all states *)
let reducible_gen =
  QCheck.Gen.(
    let rate = float_range 0.05 5. in
    let* sizes = list_size (int_range 2 3) (int_range 1 6) in
    let* nt = int_range 1 4 in
    let n = nt + List.fold_left ( + ) 0 sizes in
    let* classes =
      flatten_l
        (List.mapi
           (fun c size ->
             let base = nt + List.fold_left ( + ) 0 (List.filteri (fun d _ -> d < c) sizes) in
             let* ring = list_repeat size rate in
             let* chords =
               list_size (int_range 0 (2 * size))
                 (triple (int_range 0 (size - 1)) (int_range 0 (size - 1)) rate)
             in
             return
               (List.filter_map
                  (fun (i, j, r) -> if i <> j then Some (base + i, base + j, r) else None)
                  (List.mapi (fun i r -> (i, (i + 1) mod size, r)) ring @ chords)))
           sizes)
    in
    let* feeds = list_repeat nt (pair (int_range nt (n - 1)) rate) in
    let* extra =
      list_size (int_range 0 (2 * nt))
        (triple (int_range 0 (nt - 1)) (int_range 0 (n - 1)) rate)
    in
    return
      ( n,
        List.concat classes
        @ List.mapi (fun t (j, r) -> (t, j, r)) feeds
        @ List.filter (fun (i, j, _) -> i <> j) extra ))

(* Class weights are read back from the result (their code is unchanged);
   each class's local vector is the former generator path's. *)
let prop_reducible_matches_generator =
  QCheck.Test.make ~count:200 ~name:"2+ BSCCs agree with the Q^T path"
    (QCheck.make reducible_gen)
    (fun (n, entries) ->
      let m =
        Chain.of_transitions ~init:(Vec.create n (1. /. float_of_int n)) ~states:n
          entries
      in
      let a = Analysis.create m in
      let pi = Steady_state.solve ~analysis:a m in
      let bsccs = Analysis.bottom_sccs a in
      let expected = Vec.zeros n in
      Array.iter
        (fun members ->
          let weight = Array.fold_left (fun acc s -> acc +. pi.(s)) 0. members in
          let local, _ = generator_steady (generator_of_class m members) in
          Array.iteri (fun i s -> expected.(s) <- weight *. local.(i)) members)
        bsccs;
      Array.length bsccs >= 2
      && Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-12) expected pi)

(* Dense Gaussian elimination with partial pivoting: the independent
   oracle for the (I - A) systems the engine solves iteratively. *)
let dense_solve a b =
  let n = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  for k = 0 to n - 1 do
    let p = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs a.(i).(k) > Float.abs a.(!p).(k) then p := i
    done;
    let row = a.(k) and bk = b.(k) in
    a.(k) <- a.(!p);
    a.(!p) <- row;
    b.(k) <- b.(!p);
    b.(!p) <- bk;
    for i = k + 1 to n - 1 do
      let f = a.(i).(k) /. a.(k).(k) in
      for j = k to n - 1 do
        a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
      done;
      b.(i) <- b.(i) -. (f *. b.(k))
    done
  done;
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (a.(i).(j) *. x.(j))
    done;
    x.(i) <- !acc /. a.(i).(i)
  done;
  x

(* x = P x + rhs on the states of [inside] (P the embedded jump matrix,
   read off the dense rates), x = 0 elsewhere, over the full state space *)
let dense_restricted m inside rhs =
  let n = Chain.states m in
  let exits = Chain.exit_rates m in
  let a =
    Array.init n (fun s ->
        Array.init n (fun j ->
            let id = if j = s then 1. else 0. in
            if inside s && inside j then id -. (Chain.rate m s j /. exits.(s))
            else id))
  in
  dense_solve a (Array.init n (fun s -> if inside s then rhs s else 0.))

(* P(phi U psi): a graph fixpoint for the states that can reach psi
   through phi, then one dense solve over the undecided ones *)
let dense_until m ~phi ~psi =
  let n = Chain.states m in
  let exits = Chain.exit_rates m in
  let reach = Array.init n psi in
  let changed = ref true in
  while !changed do
    changed := false;
    for s = 0 to n - 1 do
      if (not reach.(s)) && phi s
         && List.exists (fun j -> reach.(j) && Chain.rate m s j > 0.) (List.init n Fun.id)
      then begin
        reach.(s) <- true;
        changed := true
      end
    done
  done;
  let x =
    dense_restricted m
      (fun s -> reach.(s) && not (psi s))
      (fun s ->
        let acc = ref 0. in
        for j = 0 to n - 1 do
          if psi j then acc := !acc +. (Chain.rate m s j /. exits.(s))
        done;
        !acc)
  in
  Array.init n (fun s -> if psi s then 1. else x.(s))

(* The restricted (I - A) systems behind unbounded until (both sweep
   orders), mean time to absorption and the BSCC class weights of a
   reducible steady state, each against dense elimination. *)
let prop_restricted_systems_match_dense =
  QCheck.Test.make ~count:200 ~name:"(I - A) systems = dense elimination"
    (QCheck.make reducible_gen)
    (fun (n, entries) ->
      let m =
        Chain.of_transitions ~init:(Vec.create n (1. /. float_of_int n)) ~states:n
          entries
      in
      let close x y = Float.abs (x -. y) <= 1e-9 in
      let phi s = s mod 5 <> 4 and psi s = s mod 3 = 2 in
      let until = dense_until m ~phi ~psi in
      let until_ok scc_order =
        Array.for_all2 close until
          (Reachability.unbounded_until ~scc_order m ~phi ~psi)
      in
      let certain =
        Array.map (fun p -> p >= 1. -. 1e-9) (dense_until m ~phi:(fun _ -> true) ~psi)
      in
      let exits = Chain.exit_rates m in
      let time =
        dense_restricted m
          (fun s -> certain.(s) && not (psi s))
          (fun s -> 1. /. exits.(s))
      in
      let time_ok =
        Array.for_all2
          (fun t s ->
            let expected =
              if psi s then 0. else if certain.(s) then time.(s) else infinity
            in
            if expected = infinity then t = infinity
            else Float.abs (t -. expected) <= 1e-9 *. Float.max 1. expected)
          (Ctmc.Absorption.expected_time_to m ~psi)
          (Array.init n Fun.id)
      in
      let a = Analysis.create m in
      let pi = Steady_state.solve ~analysis:a m in
      let init = Chain.initial m in
      let weights_ok =
        Array.for_all
          (fun members ->
            let inside = Array.make n false in
            Array.iter (fun s -> inside.(s) <- true) members;
            let hit = dense_until m ~phi:(fun _ -> true) ~psi:(fun s -> inside.(s)) in
            let expected = ref 0. in
            Array.iteri (fun s p -> expected := !expected +. (p *. hit.(s))) init;
            close !expected
              (Array.fold_left (fun acc s -> acc +. pi.(s)) 0. members))
          (Analysis.bottom_sccs a)
      in
      until_ok true && until_ok false && time_ok && weights_ok)

let prop_power_iteration_matches_gs =
  QCheck.Test.make ~count:100
    ~name:"power iteration = Gauss-Seidel"
    (QCheck.make (irreducible_gen ~max_states:12 ~rate:(QCheck.Gen.float_range 0.1 5.)))
    (fun (n, entries) ->
      let m = Chain.of_transitions ~states:n entries in
      let _, p = Chain.uniformized m in
      let pi, _ =
        Numeric.Solver.power_iteration ~tol:1e-14 p (Vec.create n (1. /. float_of_int n))
      in
      Vec.normalize_l1 pi;
      Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-9) pi (Steady_state.solve m))

(* the BSCC derivation reads the session's Tarjan result instead of
   running Tarjan again *)
let test_steady_one_tarjan () =
  let m = analysis_chain () in
  let a = Analysis.create m in
  let (), spans =
    traced (fun () ->
        ignore (Steady_state.solve ~analysis:a m);
        ignore (Steady_state.is_irreducible ~analysis:a m);
        ignore (Analysis.bottom_sccs a))
  in
  let count name = List.length (List.filter (fun (nm, _) -> nm = name) spans) in
  Alcotest.(check int) "one analysis.sccs span" 1 (count "analysis.sccs");
  (* {3, 4} is the only class: one local solve on its sub-chain *)
  Alcotest.(check int) "one stationary solve" 1 (count "steady_state.stationary");
  Alcotest.(check int) "one steady sweep loop" 1 (count "solver.steady_gauss_seidel");
  Alcotest.(check int) "one R^T (the class's)" 1 (count "analysis.transpose_rates")

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "ctmc"
    [
      ( "chain",
        [
          Alcotest.test_case "validation" `Quick test_chain_validation;
          Alcotest.test_case "accessors" `Quick test_chain_accessors;
          Alcotest.test_case "uniformized" `Quick test_chain_uniformized;
          Alcotest.test_case "embedded" `Quick test_chain_embedded;
          Alcotest.test_case "absorbing" `Quick test_chain_absorbing;
          Alcotest.test_case "restrict reachable" `Quick test_restrict_reachable;
          Alcotest.test_case "restrict closed set" `Quick test_chain_restrict;
        ] );
      ( "transient",
        [
          Alcotest.test_case "two-state analytic" `Quick test_transient_two_state;
          Alcotest.test_case "erlang cdf" `Quick test_transient_erlang;
          Alcotest.test_case "curve matches pointwise" `Quick
            test_transient_curve_matches_pointwise;
          Alcotest.test_case "backward" `Quick test_transient_backward;
          Alcotest.test_case "zero time" `Quick test_transient_zero_time;
          Alcotest.test_case "absorbing chain" `Quick test_transient_absorbing_chain;
        ]
        @ qsuite [ prop_transient_is_distribution; prop_uniformization_matches_expm ] );
      ( "reachability",
        [
          Alcotest.test_case "pure death" `Quick test_bounded_until_pure_death;
          Alcotest.test_case "phi constraint" `Quick test_bounded_until_phi_constraint;
          Alcotest.test_case "psi initial" `Quick test_bounded_until_psi_initial;
          Alcotest.test_case "gambler's ruin" `Quick test_unbounded_until_gambler;
          Alcotest.test_case "recurrent certain" `Quick test_unbounded_until_certain;
          Alcotest.test_case "curve monotone" `Quick test_bounded_until_curve_monotone;
        ]
        @ qsuite [ prop_bounded_until_in_unit_interval ] );
      ( "absorption",
        [
          Alcotest.test_case "two-state hitting time" `Quick test_hitting_time_two_state;
          Alcotest.test_case "erlang stages" `Quick test_hitting_time_erlang;
          Alcotest.test_case "unreachable is infinite" `Quick test_hitting_time_unreachable;
          Alcotest.test_case "sub-probability hit is infinite" `Quick
            test_hitting_time_not_almost_sure;
          Alcotest.test_case "initial-weighted" `Quick test_mean_time_from_init;
        ] );
      ( "interval-until",
        [
          Alcotest.test_case "transient target analytic" `Quick
            test_interval_until_transient_target;
          Alcotest.test_case "zero lower bound" `Quick test_interval_until_zero_lower;
          Alcotest.test_case "phi constraint" `Quick test_interval_until_phi_constraint;
          Alcotest.test_case "monotone widening" `Quick
            test_interval_until_monotone_widening;
        ] );
      ( "witness",
        [
          Alcotest.test_case "probable branch" `Quick test_witness_simple_choice;
          Alcotest.test_case "unreachable" `Quick test_witness_unreachable;
          Alcotest.test_case "trivial" `Quick test_witness_trivial;
          Alcotest.test_case "certain long path" `Quick
            test_witness_prefers_short_high_probability;
        ] );
      ( "steady-state",
        [
          Alcotest.test_case "irreducible" `Quick test_steady_irreducible;
          Alcotest.test_case "two absorbing states" `Quick
            test_steady_reducible_two_absorbing;
          Alcotest.test_case "bscc classes" `Quick test_steady_reducible_bscc_classes;
          Alcotest.test_case "initial distribution matters" `Quick
            test_steady_depends_on_init;
          Alcotest.test_case "long-run probability" `Quick test_long_run_probability;
          Alcotest.test_case "irreducibility check" `Quick test_is_irreducible;
          Alcotest.test_case "one Tarjan per session" `Quick test_steady_one_tarjan;
        ]
        @ qsuite
            [
              prop_steady_state_is_distribution; prop_steady_rates_match_generator;
              prop_reducible_matches_generator;
              prop_restricted_systems_match_dense; prop_power_iteration_matches_gs;
            ] );
      ( "rewards",
        [
          Alcotest.test_case "instantaneous" `Quick test_instantaneous_reward;
          Alcotest.test_case "accumulated two-state" `Quick
            test_accumulated_reward_two_state;
          Alcotest.test_case "mean absorption time" `Quick
            test_accumulated_absorbing_expected_time;
          Alcotest.test_case "curve consistent" `Quick test_accumulated_curve_consistent;
          Alcotest.test_case "constant reward linear" `Quick
            test_accumulated_linear_when_constant;
          Alcotest.test_case "steady-state reward" `Quick test_steady_state_reward;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "transient equivalence" `Quick
            test_analysis_transient_equiv;
          Alcotest.test_case "reachability equivalence" `Quick
            test_analysis_reachability_equiv;
          Alcotest.test_case "reward equivalence" `Quick test_analysis_rewards_equiv;
          Alcotest.test_case "steady-state equivalence" `Quick
            test_analysis_steady_equiv;
          Alcotest.test_case "hit counters" `Quick test_analysis_hit_counters;
          Alcotest.test_case "until predicates once per state" `Quick
            test_until_predicates_once;
          Alcotest.test_case "foreign session ignored" `Quick
            test_analysis_wrong_chain_ignored;
          Alcotest.test_case "quotient measures agree" `Quick
            test_analysis_quotient_measures_agree;
          Alcotest.test_case "weight cache hits on repeat" `Quick
            test_analysis_weights_cache_hit;
          Alcotest.test_case "nan keys rejected" `Quick
            test_analysis_rejects_nan_keys;
          Alcotest.test_case "fnv1a64 reference vectors" `Quick
            test_analysis_fnv1a64;
        ] );
      ( "multi-kernel",
        [
          Alcotest.test_case "matches single-point kernel" `Quick
            test_multi_kernel_matches_single;
          Alcotest.test_case "times contract" `Quick
            test_multi_kernel_times_contract;
          Alcotest.test_case "pass/step counters" `Quick
            test_multi_kernel_counters;
          Alcotest.test_case "curves preserve times" `Quick
            test_curve_preserves_times;
        ] );
      ( "batched-kernel",
        [
          Alcotest.test_case "blocked sweep matches streams" `Quick
            test_batch_kernel_matches_multi;
          Alcotest.test_case "transient batch entries" `Quick
            test_transient_batch_entries;
          Alcotest.test_case "both cost curves in one sweep" `Quick
            test_rewards_both_curves;
          Alcotest.test_case "long-run probabilities multi-RHS" `Quick
            test_long_run_probabilities;
          Alcotest.test_case "scc-ordered unbounded until" `Quick
            test_unbounded_until_scc_order;
          Alcotest.test_case "forward = per-step vec_mul" `Quick
            (check_batch_matches_reference ~dir:Analysis.Forward forward_starts);
          Alcotest.test_case "backward = per-step mul_vec" `Quick
            (check_batch_matches_reference ~dir:Analysis.Backward
               backward_starts);
          Alcotest.test_case "equal starts share a column" `Quick
            test_equal_starts_share_column;
          Alcotest.test_case "signed zeros do not share" `Quick
            test_signed_zeros_do_not_share;
        ] );
      ( "masked",
        [ Alcotest.test_case "edge cases" `Quick test_mask_edge_cases ]
        @ qsuite
            [ prop_until_matches_absorbed; prop_masked_values_match_absorbed ] );
      ( "times",
        List.map
          (fun ((who, _) as entry) ->
            Alcotest.test_case (who ^ " rejects bad times") `Quick
              (test_rejects_bad_time entry))
          time_entry_points );
      ( "projected",
        [
          Alcotest.test_case "values face contract" `Quick
            test_projected_contract;
        ]
        @ List.map
            (fun ((who, _) as entry) ->
              Alcotest.test_case (who ^ " rejects bad times") `Quick
                (test_curve_rejects_bad_times entry))
            curve_entry_points
        @ qsuite [ prop_projected_matches_vector ] );
      ( "lumping",
        [
          Alcotest.test_case "symmetric pair" `Quick test_lump_symmetric_pair;
          Alcotest.test_case "refinement splits" `Quick test_lump_refines_when_needed;
          Alcotest.test_case "identity partition" `Quick test_lump_identity_partition;
          Alcotest.test_case "lift and project" `Quick test_lump_lift_project;
          Alcotest.test_case "no tolerance-grid splits" `Quick
            test_lump_no_grid_splits;
          Alcotest.test_case "input validation" `Quick
            test_lump_tolerance_validation;
        ]
        @ qsuite [ prop_lumping_preserves_steady_state ] );
      ( "simulate",
        [
          Alcotest.test_case "transient estimate" `Slow test_simulate_transient_matches;
          Alcotest.test_case "accumulated estimate" `Slow
            test_simulate_accumulated_matches;
          Alcotest.test_case "path shape" `Quick test_simulate_path_shape;
          Alcotest.test_case "time in predicate" `Quick test_simulate_time_in;
          Alcotest.test_case "path reward" `Quick test_simulate_reward_of_path;
        ] );
    ]
