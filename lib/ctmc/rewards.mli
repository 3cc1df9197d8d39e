(** Markov reward models: CSRL's reward operators over state rewards.

    A reward structure assigns a rate [rho.(s)] (reward per unit time) to
    every state. The three operators the paper uses:

    - instantaneous reward [R=? [I=t]]: expected reward rate at time [t],
    - accumulated reward [R=? [C<=t]]: expected reward accumulated in [0,t],
    - steady-state reward [R=? [S]]: long-run average reward rate.

    All operators accept an [?analysis] session; with one, the transient
    runs share the memoized transposed rates and Fox–Glynn weights and
    the steady-state operator shares the cached stationary vector. *)

type structure = Numeric.Vec.t
(** [structure.(s)] is the reward rate of state [s]. *)

val instantaneous :
  ?epsilon:float ->
  ?analysis:Analysis.t ->
  Chain.t ->
  reward:structure ->
  at:float ->
  float
(** [instantaneous m ~reward ~at] is [sum_s pi(at)(s) * reward(s)]. *)

val instantaneous_curve :
  ?epsilon:float ->
  ?analysis:Analysis.t ->
  Chain.t ->
  reward:structure ->
  times:float list ->
  (float * float) list
(** Instantaneous reward at several time points, sharing one forward
    uniformization sweep through the reward-projected face of the kernel
    ({!Analysis.poisson_mixture_values}: one dot with the reward per
    step, no per-point vectors). The result is aligned 1:1 with [times]
    (order preserved, duplicates kept). Like every curve below, raises
    [Invalid_argument] naming the function on a negative, NaN or infinite
    time. *)

val accumulated :
  ?epsilon:float ->
  ?analysis:Analysis.t ->
  Chain.t ->
  reward:structure ->
  upto:float ->
  float
(** [accumulated m ~reward ~upto] is [E(int_0^upto reward(X_u) du)],
    computed by the uniformization integral
    [sum_k (1/lambda) P(Poisson(lambda t) > k) (v_k . rho)]. Raises
    [Invalid_argument] naming the function on a negative, NaN or infinite
    [upto]. *)

val accumulated_curve :
  ?epsilon:float ->
  ?analysis:Analysis.t ->
  Chain.t ->
  reward:structure ->
  times:float list ->
  (float * float) list
(** Accumulated reward at several time points through one shared
    [Tail_over_lambda] sweep with a per-point scalar accumulator
    ({!Analysis.poisson_mixture_values}) — one pass of
    SpMVs for the whole curve, where the former segmented evaluation paid
    two passes (reward integral + transient restart) per segment. The
    result is aligned 1:1 with [times] (order preserved, duplicates
    kept). *)

val both_curves :
  ?epsilon:float ->
  ?analysis:Analysis.t ->
  Chain.t ->
  reward:structure ->
  times:float list ->
  (float * float) list * (float * float) list
(** [(instantaneous_curve, accumulated_curve)] over the same time grid
    from {e one} blocked sweep ({!Analysis.poisson_mixture_values}): the
    [Pmf] and [Tail_over_lambda] coefficient streams start from the same
    initial distribution, so they share one iterate column and both
    figures cost a single width-1 sweep.
    Point values equal {!instantaneous_curve} and {!accumulated_curve}
    respectively. *)

val steady_state :
  ?tol:float -> ?analysis:Analysis.t -> Chain.t -> reward:structure -> float
(** Long-run average reward rate. *)
