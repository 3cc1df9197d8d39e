(* Chain transformations the library no longer needs, kept as test
   oracles: a time-bounded until sweeps a row mask instead of building
   the absorbed chain ({!Ctmc.Analysis.absorbing}), the state-space
   builder explores only reachable states, and no analysis forms the
   generator (the steady-state solve and lumping read R^T and the exit
   rates). *)

module Chain = Ctmc.Chain
module Sparse = Numeric.Sparse

(* [generator m] is the infinitesimal generator [Q = R - diag(exit)]; a
   zero exit rate stores no diagonal entry. *)
let generator m =
  let n = Chain.states m in
  let exit = Chain.exit_rates m in
  let b = Sparse.Builder.create ~rows:n ~cols:n in
  Sparse.iteri (Chain.rates m) (fun i j x -> Sparse.Builder.add b i j x);
  for i = 0 to n - 1 do
    if exit.(i) <> 0. then Sparse.Builder.add b i i (-.exit.(i))
  done;
  Sparse.Builder.to_csr b

(* [absorbing m ~pred] removes all outgoing transitions of the states
   satisfying [pred] (they become absorbing), asking [pred] once per
   state; the initial distribution is kept. *)
let absorbing m ~pred =
  let n = Chain.states m in
  let b = Sparse.Builder.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    if not (pred i) then Sparse.iter_row (Chain.rates m) i (Sparse.Builder.add b i)
  done;
  Chain.make ~init:(Chain.initial m) (Sparse.Builder.to_csr b)

(* [restrict_reachable m] drops the states unreachable from the support
   of the initial distribution: the restricted chain and the map from
   new indices to old. *)
let restrict_reachable m =
  let init = Chain.initial m in
  let states = List.init (Chain.states m) Fun.id in
  let seeds = List.filter (fun s -> init.(s) > 0.) states in
  let keep = Numeric.Digraph.reachable (Chain.rates m) seeds in
  let old_of_new = Array.of_list (List.filter (Array.get keep) states) in
  ( Chain.with_init (Chain.restrict m old_of_new) (Array.map (Array.get init) old_of_new),
    old_of_new )
