module Sparse = Numeric.Sparse
module Vec = Numeric.Vec

type t = {
  n : int;
  rates : Sparse.t;
  exit : Vec.t;
  init : Vec.t;
}

let validate_rates rates =
  let n = Sparse.rows rates in
  if Sparse.cols rates <> n then invalid_arg "Chain.make: rate matrix not square";
  Sparse.iteri rates (fun i j x ->
      if x < 0. then
        invalid_arg
          (Printf.sprintf "Chain.make: negative rate %g at (%d,%d)" x i j);
      if i = j && x <> 0. then
        invalid_arg
          (Printf.sprintf "Chain.make: non-zero diagonal entry at state %d" i));
  n

let make ?init rates =
  let n = validate_rates rates in
  if n = 0 then invalid_arg "Chain.make: empty chain";
  let init =
    match init with
    | None -> Vec.unit n 0
    | Some v ->
        if Vec.dim v <> n then invalid_arg "Chain.make: init dimension mismatch";
        if not (Vec.is_distribution ~eps:1e-6 v) then
          invalid_arg "Chain.make: init is not a probability distribution";
        Vec.copy v
  in
  { n; rates; exit = Sparse.row_sums rates; init }

let of_transitions ?init ~states transitions =
  let b = Sparse.Builder.create ~rows:states ~cols:states in
  List.iter (fun (i, j, r) -> Sparse.Builder.add b i j r) transitions;
  make ?init (Sparse.Builder.to_csr b)

let states m = m.n

let rates m = m.rates

let rate m i j = Sparse.get m.rates i j

let exit_rates m = m.exit

let initial m = m.init

let with_init m init =
  if Vec.dim init <> m.n then invalid_arg "Chain.with_init: dimension mismatch";
  if not (Vec.is_distribution ~eps:1e-6 init) then
    invalid_arg "Chain.with_init: not a probability distribution";
  { m with init = Vec.copy init }

let transition_count m = Sparse.nnz m.rates

(* Absorbing rows count with exit rate 0, as in the chain with their
   transitions removed: the fold is the one [Vec.max_entry] makes over
   that chain's exit rates. *)
let uniformization_rate ?(absorbing = fun _ -> false) m =
  let max_exit = ref neg_infinity in
  Array.iteri
    (fun s e -> max_exit := Float.max !max_exit (if absorbing s then 0. else e))
    m.exit;
  Float.max 1e-10 (!max_exit *. 1.02)

(* P = I + Q/lambda *)
let uniformized m =
  let lambda = uniformization_rate m in
  let b = Sparse.Builder.create ~rows:m.n ~cols:m.n in
  Sparse.iteri m.rates (fun i j x -> Sparse.Builder.add b i j (x /. lambda));
  for i = 0 to m.n - 1 do
    let self = 1. -. (m.exit.(i) /. lambda) in
    if self <> 0. then Sparse.Builder.add b i i self
  done;
  (lambda, Sparse.Builder.to_csr b)

let embedded m =
  let b = Sparse.Builder.create ~rows:m.n ~cols:m.n in
  Sparse.iteri m.rates (fun i j x -> Sparse.Builder.add b i j (x /. m.exit.(i)));
  for i = 0 to m.n - 1 do
    if m.exit.(i) = 0. then Sparse.Builder.add b i i 1.
  done;
  Sparse.Builder.to_csr b

(* Exit rates are carried over, not re-summed in the new column order:
   a closed set keeps all of a state's transitions. The index is a
   Hashtbl, not an n-array, so that restricting to each of many small
   recurrent classes costs their size, not the chain's. *)
let restrict m states =
  let k = Array.length states in
  if k = 0 then invalid_arg "Chain.restrict: empty state set";
  let index = Hashtbl.create k in
  Array.iteri
    (fun i s ->
      if Hashtbl.mem index s then invalid_arg "Chain.restrict: repeated state";
      Hashtbl.replace index s i)
    states;
  let b = Sparse.Builder.create ~rows:k ~cols:k in
  Array.iteri
    (fun i s ->
      Sparse.iter_row m.rates s (fun j x ->
          match Hashtbl.find_opt index j with
          | Some jj -> Sparse.Builder.add b i jj x
          | None -> invalid_arg "Chain.restrict: a transition leaves the set"))
    states;
  let exit = Array.map (Array.get m.exit) states in
  { n = k; rates = Sparse.Builder.to_csr b; exit; init = Vec.unit k 0 }

let pp_stats ppf m =
  Format.fprintf ppf "ctmc: %d states, %d transitions, max exit rate %g" m.n
    (transition_count m)
    (Vec.max_entry m.exit)
