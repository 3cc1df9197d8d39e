module Vec = Numeric.Vec

(* The CSL reduction of [phi U<=t psi] makes the psi and the not-phi
   states absorbing. [masked] evaluates [psi] and [phi] once per state,
   at most, into one class per state (1: psi, 2: absorbing without psi,
   0: neither) and returns the session to sweep, its absorbing-row mask
   and the psi indicator: no absorbed chain is built. *)
let masked ?analysis m ~phi ~psi =
  Obs.Trace.with_span "reachability.mask" @@ fun _ ->
  let cls =
    Array.init (Chain.states m) (fun s -> if psi s then 1. else if phi s then 0. else 2.)
  in
  let session = Analysis.for_chain analysis m in
  ( session,
    Analysis.absorbing session (fun s -> cls.(s) <> 0.),
    Array.map (fun c -> if c = 1. then 1. else 0.) cls )

(* the value vector of [start] backward over [time], [absorbing] masked *)
let backward ?epsilon session absorbing start time =
  match
    Analysis.poisson_mixture_batch ?epsilon ~absorbing session
      ~dir:Analysis.Backward
      [ { Analysis.start; coeff = Analysis.Pmf; times = [ time ] } ]
  with
  | [ [ v ] ] -> v
  | _ -> assert false

let bounded_until ?epsilon ?analysis m ~phi ~psi ~bound =
  if bound < 0. then invalid_arg "Reachability.bounded_until: negative bound";
  let session, absorbing, goal = masked ?analysis m ~phi ~psi in
  backward ?epsilon session absorbing goal bound

(* the psi mass of each transient distribution, through the values face of
   the kernel with the psi indicator as reward *)
let bounded_until_curve ?epsilon ?analysis m ~phi ~psi ~bounds =
  Analysis.check_times "Reachability.bounded_until_curve" bounds;
  let session, absorbing, goal = masked ?analysis m ~phi ~psi in
  let start = Chain.initial m in
  match
    Analysis.poisson_mixture_values ?epsilon ~absorbing session
      ~dir:Analysis.Forward
      [ ({ Analysis.start; coeff = Analysis.Pmf; times = bounds }, goal) ]
  with
  | [ mass ] -> List.combine bounds mass
  | _ -> assert false

let bounded_until_from_init ?epsilon ?analysis m ~phi ~psi ~bound =
  if bound < 0. then invalid_arg "Reachability.bounded_until: negative bound";
  match
    bounded_until_curve ?epsilon ?analysis m ~phi ~psi ~bounds:[ bound ]
  with
  | [ (_, p) ] -> p
  | _ -> assert false

let interval_until ?epsilon ?analysis m ~phi ~psi ~lower ~upper =
  if lower < 0. || upper < lower then
    invalid_arg "Reachability.interval_until: bad interval";
  let in_phi = Array.init (Chain.states m) phi in
  let phi s = in_phi.(s) in
  if lower = 0. then bounded_until ?epsilon ?analysis m ~phi ~psi ~bound:upper
  else begin
    let w = bounded_until ?epsilon ?analysis m ~phi ~psi ~bound:(upper -. lower) in
    (* during [0, lower) the path must stay inside phi; leaving phi zeroes
       the continuation value *)
    let w' = Array.mapi (fun s v -> if phi s then v else 0.) w in
    let a = Analysis.for_chain analysis m in
    let v = backward ?epsilon a (Analysis.absorbing a (fun s -> not (phi s))) w' lower in
    Array.mapi (fun s x -> if phi s then x else 0.) v
  end

(* Unbounded until over the embedded DTMC. States are classified as:
   - psi: probability 1;
   - "maybe": phi, not psi, and some psi state is reachable through phi
     states: solve (I - A) x = b where A is the embedded matrix restricted
     to maybe states and b the one-step probability into psi;
   - everything else: probability 0. *)
let unbounded_until ?(tol = 1e-13) ?(scc_order = true) ?analysis m ~phi ~psi =
  let n = Chain.states m in
  let result = Vec.zeros n in
  let a = Analysis.for_chain analysis m in
  (* states that reach psi along transitions out of phi-and-not-psi
     states: a backward search over the rows of R^T *)
  let can_reach =
    Numeric.Digraph.reachable
      ~enter:(fun s -> phi s && not (psi s))
      (Analysis.rates_transposed a)
      (List.filter psi (List.init n Fun.id))
  in
  let maybe = Array.init n (fun s -> (not (psi s)) && phi s && can_reach.(s)) in
  for s = 0 to n - 1 do
    if psi s then result.(s) <- 1.
  done;
  (* (I - A) x = b, b the one-step probability into psi *)
  (match
     Analysis.restricted_system a (fun s -> maybe.(s)) ~rhs:Vec.zeros
       ~leave:(fun rhs i j p -> if psi j then rhs.(i) <- rhs.(i) +. p)
   with
  | None -> ()
  | Some ({ Analysis.states; matrix; order }, rhs) ->
      (* sweeping successors-first (SCC topological order) collapses the
         iteration count on DAG-like phi-regions *)
      let order = if scc_order then Some order else None in
      let x, _ = Numeric.Solver.solve_gauss_seidel ~tol ?order matrix rhs in
      Array.iteri (fun i s -> result.(s) <- x.(i)) states);
  result

let eventually ?tol ?scc_order ?analysis m ~psi =
  unbounded_until ?tol ?scc_order ?analysis m ~phi:(fun _ -> true) ~psi
