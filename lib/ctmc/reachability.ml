module Vec = Numeric.Vec
module Sparse = Numeric.Sparse

let indicator n pred =
  Array.init n (fun s -> if pred s then 1. else 0.)

(* The transformed chain bounded-until model checking runs on, plus its
   sub-session when a session is available (so repeated queries against the
   same [phi]/[psi] reuse one absorbed chain and uniformized matrix). *)
let absorb ?analysis m ~pred =
  match analysis with
  | Some a when Analysis.wraps a m ->
      let sub = Analysis.absorbed a ~pred in
      (Analysis.chain sub, Some sub)
  | Some _ | None -> (Chain.absorbing m ~pred, None)

let absorb_for_until ?analysis m ~phi ~psi =
  absorb ?analysis m ~pred:(fun s -> psi s || not (phi s))

(* Lumping note: the quotient of the absorbed chain must respect [psi] —
   otherwise the absorbing psi states could merge with absorbing
   not-phi states (both have all-zero generator rows) and the target
   mass would be wrong. [Transient.probability_at ~lump] /
   [Transient.backward ~lump] respect exactly the predicate/vector they
   evaluate, which is psi (or its indicator), so that is guaranteed. *)

let bounded_until ?epsilon ?lump ?analysis m ~phi ~psi ~bound =
  if bound < 0. then invalid_arg "Reachability.bounded_until: negative bound";
  let m', sub = absorb_for_until ?analysis m ~phi ~psi in
  let goal = indicator (Chain.states m) psi in
  Transient.backward ?epsilon ?lump ?analysis:sub m' goal bound

let bounded_until_from_init ?epsilon ?lump ?analysis m ~phi ~psi ~bound =
  if bound < 0. then invalid_arg "Reachability.bounded_until: negative bound";
  let m', sub = absorb_for_until ?analysis m ~phi ~psi in
  Transient.probability_at ?epsilon ?lump ?analysis:sub m' ~pred:psi bound

let bounded_until_curve ?epsilon ?(lump = false) ?analysis m ~phi ~psi ~bounds =
  Analysis.check_times "Reachability.bounded_until_curve" bounds;
  let m', sub = absorb_for_until ?analysis m ~phi ~psi in
  let a = Analysis.for_chain sub m' in
  let a, psi =
    if lump then
      let quot = Analysis.quotient a ~respect:[ Analysis.Pred psi ] in
      (quot.Analysis.q, Analysis.block_pred quot psi)
    else (a, psi)
  in
  (* the psi mass of each transient distribution, through the values face
     of the kernel with the psi indicator as reward *)
  let m'' = Analysis.chain a in
  let start = Chain.initial m'' and goal = indicator (Chain.states m'') psi in
  match
    Analysis.poisson_mixture_values ?epsilon a ~dir:Analysis.Forward
      [ ({ Analysis.start; coeff = Analysis.Pmf; times = bounds }, goal) ]
  with
  | [ mass ] -> List.combine bounds mass
  | _ -> assert false

let interval_until ?epsilon ?analysis m ~phi ~psi ~lower ~upper =
  if lower < 0. || upper < lower then
    invalid_arg "Reachability.interval_until: bad interval";
  if lower = 0. then bounded_until ?epsilon ?analysis m ~phi ~psi ~bound:upper
  else begin
    let w = bounded_until ?epsilon ?analysis m ~phi ~psi ~bound:(upper -. lower) in
    (* during [0, lower) the path must stay inside phi; leaving phi zeroes
       the continuation value *)
    let w' = Array.mapi (fun s v -> if phi s then v else 0.) w in
    let m1, sub1 = absorb ?analysis m ~pred:(fun s -> not (phi s)) in
    let v = Transient.backward ?epsilon ?analysis:sub1 m1 w' lower in
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
  let index = Array.make n (-1) in
  let count = ref 0 in
  for s = 0 to n - 1 do
    if maybe.(s) then begin
      index.(s) <- !count;
      incr count
    end
  done;
  let nm = !count in
  for s = 0 to n - 1 do
    if psi s then result.(s) <- 1.
  done;
  if nm > 0 then begin
    let emb = Analysis.embedded a in
    (* (I - A) x = b *)
    let b = Sparse.Builder.create ~rows:nm ~cols:nm in
    let rhs = Vec.zeros nm in
    let states = Array.make nm 0 in
    for s = 0 to n - 1 do
      if maybe.(s) then begin
        states.(index.(s)) <- s;
        Sparse.Builder.add b index.(s) index.(s) 1.;
        Sparse.iter_row emb s (fun j p ->
            if psi j then rhs.(index.(s)) <- rhs.(index.(s)) +. p
            else if maybe.(j) then Sparse.Builder.add b index.(s) index.(j) (-.p))
      end
    done;
    (* sweeping successors-first (SCC topological order) collapses the
       iteration count on DAG-like phi-regions *)
    let order = if scc_order then Some (Analysis.scc_solve_order a states) else None in
    let x, _ =
      Numeric.Solver.solve_gauss_seidel ~tol ?order (Sparse.Builder.to_csr b) rhs
    in
    for s = 0 to n - 1 do
      if maybe.(s) then result.(s) <- x.(index.(s))
    done
  end;
  result

let eventually ?tol ?scc_order ?analysis m ~psi =
  unbounded_until ?tol ?scc_order ?analysis m ~phi:(fun _ -> true) ~psi
