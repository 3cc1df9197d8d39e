module Vec = Numeric.Vec

(* For non-target states s with almost-sure absorption:
     t(s) = 1 / E(s) + sum_{s'} P_emb(s, s') t(s')
   where E is the exit rate. Solve (I - A) t = b over the states that reach
   psi with probability 1; everything else is infinity. *)
let expected_time_to ?(tol = 1e-13) ?analysis m ~psi =
  let n = Chain.states m in
  let a = Analysis.for_chain analysis m in
  let reach = Reachability.eventually ~tol ~analysis:a m ~psi in
  let result = Vec.create n infinity in
  let certain = Array.init n (fun s -> reach.(s) >= 1. -. 1e-9) in
  for s = 0 to n - 1 do
    if psi s then result.(s) <- 0.
  done;
  (match
     Analysis.restricted_system a
       (fun s -> certain.(s) && not (psi s))
       ~rhs:Vec.zeros ~leave:(fun _ _ _ _ -> ())
   with
  | None -> ()
  | Some ({ Analysis.states; matrix; order }, rhs) ->
      let exits = Chain.exit_rates m in
      Array.iteri
        (fun i s ->
          (* a state certain to reach psi and not in psi must have exits *)
          assert (exits.(s) > 0.);
          rhs.(i) <- 1. /. exits.(s))
        states;
      let x, _ =
        Numeric.Solver.solve_gauss_seidel ~tol ~order matrix rhs
      in
      Array.iteri (fun i s -> result.(s) <- x.(i)) states);
  result

let mean_time_from_init ?tol ?analysis m ~psi =
  let times = expected_time_to ?tol ?analysis m ~psi in
  let init = Chain.initial m in
  let acc = ref 0. in
  Array.iteri (fun s p -> if p > 0. then acc := !acc +. (p *. times.(s))) init;
  !acc
