module Vec = Numeric.Vec
module Multivec = Numeric.Multivec

(* Matches the Numeric.Solver iterative-solver default; used as the cache
   key when the caller does not pass an explicit tolerance. *)
let default_tol = 1e-12

let is_irreducible ?analysis m =
  Analysis.is_irreducible (Analysis.for_chain analysis m)

(* Stationary vector of the irreducible chain of session [a], solved
   from the rates directly: Gauss–Seidel over the rows of the session's
   R^T, dividing by the exit rates (no generator is formed). It
   converges fast on most chains but is not guaranteed to (the iteration
   matrix of a singular splitting can have modulus-1 eigenvalues); when
   it gives up we fall back to power iteration on the uniformized DTMC,
   which is aperiodic by construction (the uniformization rate strictly
   exceeds the maximal exit rate, so every state keeps a self-loop) and
   therefore always converges. *)
let stationary ?tol a =
  let m = Analysis.chain a in
  Obs.Trace.with_span "steady_state.stationary" @@ fun span ->
  if Obs.Trace.recording span then
    Obs.Trace.add_attr span "states" (Obs.Int (Chain.states m));
  match
    Numeric.Solver.steady_state_gauss_seidel ?tol ~exit:(Chain.exit_rates m)
      (Analysis.rates_transposed a)
  with
  | pi, _ -> pi
  | exception Numeric.Solver.Did_not_converge _ ->
      Obs.Trace.add_attr span "fallback" (Obs.Str "power_iteration");
      let n = Chain.states m in
      let _, p = Chain.uniformized m in
      let pi, _ =
        Numeric.Solver.power_iteration ?tol p (Vec.create n (1. /. float_of_int n))
      in
      Vec.normalize_l1 pi;
      pi

(* Local steady state of one recurrent class — the class's own closed
   sub-chain, solved in a throwaway session — embedded back into the full
   state space scaled by [weight]. *)
let add_local_solution ?tol m members weight result =
  match members with
  | [| s |] -> result.(s) <- result.(s) +. weight
  | _ ->
      let pi = stationary ?tol (Analysis.create (Chain.restrict m members)) in
      Array.iteri (fun i s -> result.(s) <- result.(s) +. (weight *. pi.(i))) members

(* weights.(c) = P(eventually enter class c) from the initial
   distribution. Initial mass already sitting in a class counts directly;
   mass on transient states is pushed through ONE multi-RHS Gauss–Seidel
   solve of (I - A) X = B over the transient states — A the embedded
   matrix restricted to them, column c of B the one-step probability into
   class c — instead of one scalar reachability solve per class. The
   system is non-singular (every transient state eventually leaves the
   transient set) and the blocked sweep decodes the matrix once for all
   classes, in SCC topological order. *)
let bscc_weights ?tol a m bsccs in_bscc =
  let nb = Array.length bsccs in
  let init = Chain.initial m in
  let weights = Array.make nb 0. in
  let transient_mass = ref 0. in
  Array.iteri
    (fun s p ->
      if p <> 0. then
        if in_bscc.(s) >= 0 then weights.(in_bscc.(s)) <- weights.(in_bscc.(s)) +. p
        else transient_mass := !transient_mass +. p)
    init;
  (if !transient_mass > 0. then
     match
       Analysis.restricted_system a
         (fun s -> in_bscc.(s) < 0)
         ~rhs:(fun dim -> Multivec.create ~dim ~width:nb)
         ~leave:(fun rhs i j p ->
           let c = in_bscc.(j) in
           Multivec.set rhs i c (Multivec.get rhs i c +. p))
     with
     | None -> ()
     | Some ({ Analysis.states; matrix; order }, rhs) ->
         let tol = Option.value tol ~default:1e-13 in
         let x, _ =
           Numeric.Solver.solve_gauss_seidel_multi ~tol ~order
             matrix rhs
         in
         Array.iteri
           (fun i s ->
             let p = init.(s) in
             if p <> 0. then
               for c = 0 to nb - 1 do
                 weights.(c) <- weights.(c) +. (p *. Multivec.get x i c)
               done)
           states);
  weights

let solve_fresh ?tol a m =
  let n = Chain.states m in
  if Analysis.is_irreducible a then stationary ?tol a
  else begin
    let bsccs = Analysis.bottom_sccs a in
    let result = Vec.zeros n in
    let in_bscc = Array.make n (-1) in
    Array.iteri (fun c members -> Array.iter (fun s -> in_bscc.(s) <- c) members) bsccs;
    let weights = bscc_weights ?tol a m bsccs in_bscc in
    Array.iteri
      (fun c members ->
        if weights.(c) > 0. then add_local_solution ?tol m members weights.(c) result)
      bsccs;
    result
  end

let solve ?tol ?analysis m =
  match analysis with
  | Some a when Analysis.wraps a m ->
      Analysis.cached_steady a
        ~tol:(Option.value tol ~default:default_tol)
        (fun () -> solve_fresh ?tol a m)
  | Some _ | None -> solve_fresh ?tol (Analysis.create m) m

let long_run_probability ?tol ?analysis m ~pred =
  let pi = solve ?tol ~analysis:(Analysis.for_chain analysis m) m in
  let acc = ref 0. in
  Array.iteri (fun s p -> if pred s then acc := !acc +. p) pi;
  !acc
