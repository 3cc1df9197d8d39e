(** Continuous-time Markov chains.

    A CTMC is stored as its off-diagonal rate matrix [R] (entry [(i, j)] is
    the transition rate from state [i] to state [j], [i <> j]) together with
    an initial distribution. Exit rates are derived; no analysis forms
    the generator [Q = R - diag(exit)]. All analysis modules ({!Transient}, {!Reachability},
    {!Steady_state}, {!Rewards}, {!Lumping}, {!Simulate}) operate on this
    representation. *)

type t

val make : ?init:Numeric.Vec.t -> Numeric.Sparse.t -> t
(** [make ?init rates] builds a CTMC from an off-diagonal rate matrix.
    Raises [Invalid_argument] if the matrix is not square, has a negative
    entry, has a non-zero diagonal entry, or if [init] is not a probability
    distribution of the right dimension. [init] defaults to the point
    distribution on state 0. *)

val of_transitions :
  ?init:Numeric.Vec.t -> states:int -> (int * int * float) list -> t
(** Convenience constructor from a transition list; duplicate transitions
    between the same pair of states have their rates summed. *)

val states : t -> int

val rates : t -> Numeric.Sparse.t
(** The off-diagonal rate matrix. *)

val rate : t -> int -> int -> float
(** [rate m i j] is the transition rate from [i] to [j] ([i <> j]). *)

val exit_rates : t -> Numeric.Vec.t

val initial : t -> Numeric.Vec.t

val with_init : t -> Numeric.Vec.t -> t

val transition_count : t -> int
(** Number of (off-diagonal) transitions. *)

val uniformization_rate : ?absorbing:(int -> bool) -> t -> float
(** A rate [lambda >= max exit rate] suitable for uniformization (slightly
    inflated to keep the self-loop probability of the fastest state positive,
    which guarantees aperiodicity of the uniformized DTMC). At least 1e-10,
    so absorbing-only chains still uniformize. With [~absorbing], the rate
    of the chain in which those states are absorbing (their transitions
    removed), bit for bit, without building that chain: their rows count
    with exit rate 0. *)

val uniformized : t -> float * Numeric.Sparse.t
(** [uniformized m] is [(lambda, P)] with [P = I + Q/lambda] the uniformized
    stochastic matrix (diagonal included). The analysis sweeps apply [P]
    on the fly from the rates instead ({!Numeric.Sparse.mul_multi_into}
    with [~uniformize]); this explicit matrix serves the steady-state
    power-iteration fallback and tests. *)

val embedded : t -> Numeric.Sparse.t
(** The embedded jump matrix: [P(i, j) = R(i, j) / exit(i)] for non-absorbing
    [i]; absorbing states get a self-loop with probability 1. *)

val restrict : t -> int array -> t
(** [restrict m states] is the sub-chain on the {e closed} state set
    [states] (e.g. a recurrent class): state [k] is [m]'s [states.(k)]
    and keeps its exit rate bit for bit. Starts in state 0. Raises
    [Invalid_argument] on an empty or repeating set or a transition
    leaving it. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: states, transitions, max exit rate. *)
