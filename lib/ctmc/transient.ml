module Vec = Numeric.Vec

(* The Poisson-mixture loops live in Analysis.poisson_mixture_batch, the
   one kernel shared with Reachability (via backward) and Rewards; this
   module keeps the time bookkeeping and the forward/backward entry
   points. A single distribution is a one-stream batch. *)

let distribution_from ?epsilon ?analysis m start t =
  Analysis.check_times "Transient.distribution_from" [ t ];
  if t = 0. then Vec.copy start
  else
    let a = Analysis.for_chain analysis m in
    match
      Analysis.poisson_mixture_batch ?epsilon a ~dir:Analysis.Forward
        [ { Analysis.start; coeff = Analysis.Pmf; times = [ t ] } ]
    with
    | [ [ pi ] ] -> pi
    | _ -> assert false

let distribution ?epsilon ?analysis m t =
  distribution_from ?epsilon ?analysis m (Chain.initial m) t

let curve ?epsilon ?analysis m ~times =
  Analysis.check_times "Transient.curve" times;
  let a = Analysis.for_chain analysis m in
  match
    Analysis.poisson_mixture_batch ?epsilon a ~dir:Analysis.Forward
      [ { Analysis.start = Chain.initial m; coeff = Analysis.Pmf; times } ]
  with
  | [ pis ] -> List.map2 (fun t pi -> (t, pi)) times pis
  | _ -> assert false

(* K start distributions through one blocked sweep: the batched kernel
   decodes the transposed rates once per step for all of them. *)
let distribution_batch ?epsilon ?analysis m ~starts ~times =
  Analysis.check_times "Transient.distribution_batch" times;
  List.iter
    (fun start ->
      if Vec.dim start <> Chain.states m then
        invalid_arg "Transient.distribution_batch: dimension mismatch")
    starts;
  let a = Analysis.for_chain analysis m in
  Analysis.poisson_mixture_batch ?epsilon a ~dir:Analysis.Forward
    (List.map
       (fun start -> { Analysis.start; coeff = Analysis.Pmf; times })
       starts)

let backward_batch ?epsilon ?analysis m vs t =
  Analysis.check_times "Transient.backward_batch" [ t ];
  List.iter
    (fun v ->
      if Vec.dim v <> Chain.states m then
        invalid_arg "Transient.backward_batch: dimension mismatch")
    vs;
  if t = 0. then List.map Vec.copy vs
  else
    let a = Analysis.for_chain analysis m in
    Analysis.poisson_mixture_batch ?epsilon a ~dir:Analysis.Backward
      (List.map
         (fun v -> { Analysis.start = v; coeff = Analysis.Pmf; times = [ t ] })
         vs)
    |> List.map (function [ r ] -> r | _ -> assert false)

let mass pred pi =
  let acc = ref 0. in
  Array.iteri (fun s p -> if pred s then acc := !acc +. p) pi;
  !acc

let probability_at ?epsilon ?analysis m ~pred t =
  mass pred (distribution ?epsilon ?analysis m t)

let backward ?epsilon ?analysis m v t =
  Analysis.check_times "Transient.backward" [ t ];
  if Vec.dim v <> Chain.states m then
    invalid_arg "Transient.backward: dimension mismatch";
  if t = 0. then Vec.copy v
  else
    let a = Analysis.for_chain analysis m in
    match
      Analysis.poisson_mixture_batch ?epsilon a ~dir:Analysis.Backward
        [ { Analysis.start = v; coeff = Analysis.Pmf; times = [ t ] } ]
    with
    | [ [ r ] ] -> r
    | _ -> assert false
