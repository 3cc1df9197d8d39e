(** Expected hitting (absorption) times.

    Computes, per start state, the expected time until a target set is
    first hit — the engine behind system-level MTTF ("mean time to first
    system failure"). States that reach the target with probability
    less than one get [infinity] (the conditional expectation is not what
    CSRL's reachability reward defines; PRISM makes the same choice).

    With an [?analysis] session the embedded matrix and the reachability
    pre-computation share the session's caches. *)

val expected_time_to :
  ?tol:float -> ?analysis:Analysis.t -> Chain.t -> psi:(int -> bool) -> Numeric.Vec.t
(** [expected_time_to m ~psi] has entry [s] equal to the expected time to
    reach a [psi] state from [s] ([0.] on [psi] states themselves,
    [infinity] where the hit is not almost sure). *)

val mean_time_from_init :
  ?tol:float -> ?analysis:Analysis.t -> Chain.t -> psi:(int -> bool) -> float
(** Initial-distribution-weighted expected hitting time. *)
