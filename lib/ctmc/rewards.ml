module Vec = Numeric.Vec

type structure = Vec.t

let check_reward m reward =
  if Vec.dim reward <> Chain.states m then
    invalid_arg "Rewards: reward structure dimension mismatch"

let instantaneous ?epsilon ?analysis m ~reward ~at =
  check_reward m reward;
  Vec.dot (Transient.distribution ?epsilon ?analysis m at) reward

(* The scalar curves take the values face of the kernel: each step dots
   the iterate with the reward once, instead of keeping one full-length
   accumulator per time point. *)
let curves ?epsilon ?analysis m ~reward ~times ~who coeffs =
  check_reward m reward;
  Analysis.check_times who times;
  let a = Analysis.for_chain analysis m in
  let start = Chain.initial m in
  Analysis.poisson_mixture_values ?epsilon a ~dir:Analysis.Forward
    (List.map (fun coeff -> ({ Analysis.start; coeff; times }, reward)) coeffs)
  |> List.map (List.combine times)

let instantaneous_curve ?epsilon ?analysis m ~reward ~times =
  match
    curves ?epsilon ?analysis m ~reward ~times
      ~who:"Rewards.instantaneous_curve" [ Analysis.Pmf ]
  with
  | [ inst ] -> inst
  | _ -> assert false

(* E[int_0^t rho(X_u) du] from start distribution [start]:
     sum_{k>=0} (1/lambda) * P(N_{lambda t} >= k+1) * (v_k . rho)
   which is the Tail_over_lambda mixture dotted with rho; the loop is the
   shared kernel's vector face, one stream wide. *)
let accumulated ?epsilon ?analysis m ~reward ~upto =
  check_reward m reward;
  Analysis.check_times "Rewards.accumulated" [ upto ];
  let a = Analysis.for_chain analysis m in
  if upto = 0. then 0.
  else
    match
      Analysis.poisson_mixture_batch ?epsilon a ~dir:Analysis.Forward
        [
          {
            Analysis.start = Chain.initial m;
            coeff = Analysis.Tail_over_lambda;
            times = [ upto ];
          };
        ]
    with
    | [ [ weighted ] ] -> Vec.dot weighted reward
    | _ -> assert false

(* one Tail_over_lambda sweep with an accumulator per time point, instead
   of the former two passes (reward integral + transient restart) per
   segment *)
let accumulated_curve ?epsilon ?analysis m ~reward ~times =
  match
    curves ?epsilon ?analysis m ~reward ~times
      ~who:"Rewards.accumulated_curve" [ Analysis.Tail_over_lambda ]
  with
  | [ acc ] -> acc
  | _ -> assert false

(* Instantaneous and accumulated cost curves share one sweep: a Pmf stream
   and a Tail_over_lambda stream from the same start (the same vector, so
   one iterate column) with the same reward (so one dot per step) ride
   one width-1 uniformization; only the per-point coefficients differ. *)
let both_curves ?epsilon ?analysis m ~reward ~times =
  match
    curves ?epsilon ?analysis m ~reward ~times ~who:"Rewards.both_curves"
      [ Analysis.Pmf; Analysis.Tail_over_lambda ]
  with
  | [ inst; acc ] -> (inst, acc)
  | _ -> assert false

let steady_state ?tol ?analysis m ~reward =
  check_reward m reward;
  let a = Analysis.for_chain analysis m in
  let pi = Steady_state.solve ?tol ~analysis:a m in
  Vec.dot pi reward
