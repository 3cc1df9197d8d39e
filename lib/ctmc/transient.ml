module Vec = Numeric.Vec

(* The Poisson-mixture loops live in Analysis.poisson_mixture_batch, the
   one kernel shared with Reachability and Rewards; this module keeps the
   time bookkeeping. A single distribution is a one-stream batch. *)

let distribution ?epsilon ?analysis m t =
  Analysis.check_times "Transient.distribution" [ t ];
  let start = Chain.initial m in
  if t = 0. then Vec.copy start
  else
    let a = Analysis.for_chain analysis m in
    match
      Analysis.poisson_mixture_batch ?epsilon a ~dir:Analysis.Forward
        [ { Analysis.start; coeff = Analysis.Pmf; times = [ t ] } ]
    with
    | [ [ pi ] ] -> pi
    | _ -> assert false
