(** Transient analysis by uniformization (Jensen's method).

    Computes the state-probability distribution [pi(t) = pi(0) e^(Q t)] as a
    Poisson-weighted mixture of DTMC step distributions, with truncation
    error bounded by the {!Numeric.Fox_glynn} epsilon. Multi-time and
    multi-start sweeps call the kernel ({!Analysis.poisson_mixture_batch})
    directly, as {!Reachability} and {!Rewards} do.

    An optional [?analysis] session ({!Analysis.t}), when given (and
    wrapping the same chain), supplies the transposed rates and Fox–Glynn
    weights from — and memoizes them into — the session instead of
    rebuilding them per call. *)

val distribution :
  ?epsilon:float -> ?analysis:Analysis.t -> Chain.t -> float -> Numeric.Vec.t
(** [distribution m t] is the distribution over states at time [t >= 0],
    starting from the chain's initial distribution. Raises
    [Invalid_argument "Transient.distribution: times must be finite and
    non-negative (got x)"] on a negative, NaN or infinite time
    ({!Analysis.check_times}). *)
