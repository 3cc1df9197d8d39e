(** Long-run (steady-state) analysis.

    For an irreducible chain this is one Gauss–Seidel solve over the
    session's transposed rates ({!Analysis.rates_transposed}); no
    generator is formed. The general case decomposes the chain into
    bottom strongly connected components (recurrent classes), solves each
    as its own closed sub-chain ({!Chain.restrict}), and weights the local
    solutions by the probability of reaching each class from the initial
    distribution — exactly PRISM's treatment of CSL's [S] operator.

    The class reach-weights come from {e one} multi-RHS Gauss–Seidel
    solve over the transient states — one right-hand-side column per
    recurrent class, swept together in SCC topological order
    ({!Numeric.Solver.solve_gauss_seidel_multi}) — rather than one scalar
    reachability solve per class.

    With an [?analysis] session the SCC/BSCC decomposition, the embedded
    matrix behind the reach-weights and the solved stationary vector
    itself (keyed by tolerance) are memoized, so availability and
    steady-state rewards over the same chain cost one solve. *)

val solve : ?tol:float -> ?analysis:Analysis.t -> Chain.t -> Numeric.Vec.t
(** [solve m] is the long-run probability distribution over states, taking
    the initial distribution into account when the chain is reducible. *)

val long_run_probability :
  ?tol:float ->
  ?analysis:Analysis.t ->
  Chain.t ->
  pred:(int -> bool) ->
  float
(** [long_run_probability m ~pred] is the long-run fraction of time spent in
    states satisfying [pred] — CSL's [S=? [pred]]. *)

val is_irreducible : ?analysis:Analysis.t -> Chain.t -> bool
