(** Transient analysis by uniformization (Jensen's method).

    Computes the state-probability distribution [pi(t) = pi(0) e^(Q t)] as a
    Poisson-weighted mixture of DTMC step distributions, with truncation
    error bounded by the {!Numeric.Fox_glynn} epsilon.

    Every entry point takes an optional [?analysis] session
    ({!Analysis.t}); when given (and wrapping the same chain), the
    transposed rates and Fox–Glynn weights are fetched from — and
    memoized into — the session instead of being rebuilt per call.

    Every entry point raises [Invalid_argument "Transient.<function>:
    times must be finite and non-negative (got x)"] on a negative, NaN or
    infinite time ({!Analysis.check_times}). *)

val distribution :
  ?epsilon:float -> ?analysis:Analysis.t -> Chain.t -> float -> Numeric.Vec.t
(** [distribution m t] is the distribution over states at time [t >= 0],
    starting from the chain's initial distribution. *)

val distribution_from :
  ?epsilon:float ->
  ?analysis:Analysis.t ->
  Chain.t ->
  Numeric.Vec.t ->
  float ->
  Numeric.Vec.t
(** As {!distribution} but starting from an explicit distribution. *)

val curve :
  ?epsilon:float ->
  ?analysis:Analysis.t ->
  Chain.t ->
  times:float list ->
  (float * Numeric.Vec.t) list
(** [curve m ~times] evaluates the distribution at each time point through
    one shared uniformization sweep ({!Analysis.poisson_mixture_batch}):
    the vector iteration runs once to the Fox–Glynn right edge of the
    latest time with one Poisson-weight accumulator per distinct time, so
    a K-point curve costs roughly the SpMVs of its last point instead of K
    windowed segments.

    The result is aligned 1:1 with [times]: the caller's order is
    preserved (no sorting), and duplicate times each yield their own
    point. An empty [times] yields [[]]. *)

val distribution_batch :
  ?epsilon:float ->
  ?analysis:Analysis.t ->
  Chain.t ->
  starts:Numeric.Vec.t list ->
  times:float list ->
  Numeric.Vec.t list list
(** [distribution_batch m ~starts ~times] evaluates the transient
    distribution from each start vector at each time with {e one} blocked
    sweep ({!Analysis.poisson_mixture_batch}): the transposed rate matrix
    is decoded once per step for every distinct start. Result [i] aligns with start
    [i] and, within it, 1:1 with [times] (same semantics as {!curve}). *)

val probability_at :
  ?epsilon:float ->
  ?analysis:Analysis.t ->
  Chain.t ->
  pred:(int -> bool) ->
  float ->
  float
(** [probability_at m ~pred t] is the probability mass on states satisfying
    [pred] at time [t]. *)

val backward :
  ?epsilon:float ->
  ?analysis:Analysis.t ->
  Chain.t ->
  Numeric.Vec.t ->
  float ->
  Numeric.Vec.t
(** [backward m v t] is [e^(Q t) v]: entry [s] is the expected value of
    [v] at time [t] conditional on starting in state [s]. *)

val backward_batch :
  ?epsilon:float ->
  ?analysis:Analysis.t ->
  Chain.t ->
  Numeric.Vec.t list ->
  float ->
  Numeric.Vec.t list
(** [backward_batch m vs t] is [List.map (fun v -> backward m v t) vs]
    computed with one blocked sweep — e.g. the value vectors of several
    bounded-until targets over the same chain and bound. *)
