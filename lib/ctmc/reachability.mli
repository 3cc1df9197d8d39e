(** Probabilistic reachability: the engine behind CSL's until operators.

    [bounded_until] implements the standard CSL reduction (Baier et al.):
    make all [not phi and not psi] states and all [psi] states absorbing, then
    the probability of [phi U<=t psi] from state [s] equals the probability
    of sitting in a [psi] state at time [t] in the modified chain.
    [unbounded_until] solves the linear system over the embedded DTMC.

    The modified chain is never built. Each time-bounded query evaluates
    [psi] once per state and [phi] at most once per state (under a
    [reachability.mask] span) and sweeps the chain's own rates with the
    absorbing rows masked ({!Analysis.absorbing}); with an [?analysis]
    session it shares the session's transposed rates and Fox–Glynn
    weights, and the embedded matrix of the unbounded case. Results equal
    the absorbed chain's in exact arithmetic. *)

val bounded_until :
  ?epsilon:float ->
  ?analysis:Analysis.t ->
  Chain.t ->
  phi:(int -> bool) ->
  psi:(int -> bool) ->
  bound:float ->
  Numeric.Vec.t
(** Per-state probability of [phi U<=bound psi]. The vector iteration
    runs on the session's operator with the psi and not-phi rows masked. *)

val bounded_until_from_init :
  ?epsilon:float ->
  ?analysis:Analysis.t ->
  Chain.t ->
  phi:(int -> bool) ->
  psi:(int -> bool) ->
  bound:float ->
  float
(** The same probability weighted by the chain's initial distribution. *)

val bounded_until_curve :
  ?epsilon:float ->
  ?analysis:Analysis.t ->
  Chain.t ->
  phi:(int -> bool) ->
  psi:(int -> bool) ->
  bounds:float list ->
  (float * float) list
(** [bounded_until_curve m ~phi ~psi ~bounds] evaluates
    {!bounded_until_from_init} at each time bound, sharing one forward
    uniformization sweep across all bounds through the reward-projected
    face of the kernel ({!Analysis.poisson_mixture_values} over the mask:
    the psi mass is the initial psi mass plus its inflow, one dot per
    step). The result is aligned 1:1 with
    [bounds]: order is preserved and duplicates each yield a point.
    Raises [Invalid_argument "Reachability.bounded_until_curve: ..."] on a
    negative, NaN or infinite bound. *)

val interval_until :
  ?epsilon:float ->
  ?analysis:Analysis.t ->
  Chain.t ->
  phi:(int -> bool) ->
  psi:(int -> bool) ->
  lower:float ->
  upper:float ->
  Numeric.Vec.t
(** Per-state probability of [phi U[lower,upper] psi]: reach a [psi] state
    at some time in the closed interval, staying in [phi] states throughout
    [0, lower) and from then until [psi] is hit. Implemented as the
    composition of a [phi]-constrained transient phase over [0, lower] and
    a bounded until over [upper - lower] (Baier et al.). *)

val unbounded_until :
  ?tol:float ->
  ?scc_order:bool ->
  ?analysis:Analysis.t ->
  Chain.t ->
  phi:(int -> bool) ->
  psi:(int -> bool) ->
  Numeric.Vec.t
(** Per-state probability of [phi U psi] (no time bound). Exact 0 states
    (cannot reach [psi] within [phi]) are identified graph-theoretically
    before solving, so the linear system is non-singular. [scc_order]
    (default [true]) sweeps the Gauss–Seidel solve in SCC topological
    order ({!Analysis.restricted_system}), which converges in a handful of
    sweeps on DAG-like models; pass [false] for the natural state order
    (same fixpoint, more sweeps). *)

val eventually :
  ?tol:float ->
  ?scc_order:bool ->
  ?analysis:Analysis.t ->
  Chain.t ->
  psi:(int -> bool) ->
  Numeric.Vec.t
(** [eventually m ~psi] is [unbounded_until m ~phi:(fun _ -> true) ~psi]. *)
