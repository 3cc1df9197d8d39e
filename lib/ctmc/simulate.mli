(** Discrete-event simulation of CTMCs.

    An independent validation path for the numerical engine: sample paths
    with exponential holding times, plus Monte-Carlo estimators for the
    measures the paper computes numerically (transient probabilities,
    long-run availability, accumulated rewards). Estimators return a mean
    and the standard error of the mean. *)

type path = (float * int) list
(** A sampled trajectory as [(entry_time, state)] pairs in time order;
    the first entry time is [0.]. *)

val run : Chain.t -> Numeric.Rng.t -> horizon:float -> path
(** Simulate one trajectory from a sampled initial state up to [horizon].
    The path ends at the last state entered before (or at) the horizon; if
    an absorbing state is entered the path simply stops growing. *)

val state_at : path -> float -> int
(** The state a path occupies at a given time. *)

val time_in : path -> horizon:float -> pred:(int -> bool) -> float
(** Total time the path spends in [pred] states within [0, horizon]. *)

val accumulated_reward : path -> horizon:float -> reward:Numeric.Vec.t -> float
(** Reward accumulated along the path up to [horizon]. *)

type estimate = { mean : float; std_error : float; runs : int }

val estimate :
  Chain.t -> Numeric.Rng.t -> runs:int -> horizon:float -> f:(path -> float) -> estimate
(** Monte-Carlo estimate of [E(f path)] over [runs] trajectories. *)

val estimate_transient :
  Chain.t -> Numeric.Rng.t -> runs:int -> at:float -> pred:(int -> bool) -> estimate
(** Estimate of the probability of being in a [pred] state at time [at]. *)

val estimate_accumulated :
  Chain.t -> Numeric.Rng.t -> runs:int -> upto:float -> reward:Numeric.Vec.t -> estimate
(** Estimate of the accumulated reward in [0, upto]. *)
