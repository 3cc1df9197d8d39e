(** The paper's dependability and performability measures, as a high-level
    API over an Arcade model.

    Every measure corresponds to a CSL/CSRL query (Section 3 of the paper),
    so the same numbers can be reproduced by checking that query against
    {!to_csl_model} through the {!Csl.Checker} pipeline. *)

type t = {
  built : Semantics.built;
  analysis : Ctmc.Analysis.t;
      (** the analysis session shared by every measure (and by the CSL
          model): transposed rates, Fox–Glynn weights and the
          steady-state vector are each computed at most once. *)
  csl : Csl.Checker.model;
  cost : Ctmc.Rewards.structure;
      (** the sum of {!Semantics.cost_structures}, computed once; the cost
          measures and the CSL model's ["cost"] reward share it *)
}

val analyze :
  ?max_states:int -> ?initial:Semantics.state -> ?symmetric:bool -> Model.t -> t
(** Build the state space — and one cached {!Ctmc.Analysis} session over
    it — once; all measures below reuse both. [symmetric] (default
    [false]) builds the quotient under interchangeable components
    ({!Semantics.build}): the group-invariant measures (availability,
    service levels, costs, the fault tree) are exact on it, while the
    scenario measures and the labels of grouped components raise
    [Invalid_argument]. {!Session} picks the chain per query instead.
    The build runs under a [measures.build] span with
    [states] and [symmetric] attributes, the wrapping (cost vectors, CSL
    model) under [measures.wrap]. *)

val rooted : t -> (float * Semantics.state) list -> t
(** [rooted t weighted] is [t] started from another initial distribution:
    each [(weight, state)] pair puts mass [weight] on [state] (weights are
    normalized; a state listed twice sums its weights). Nothing is
    rebuilt: the view keeps [t]'s state set, packed keys, cost vectors
    and labels, and its analysis session is {!Ctmc.Analysis.with_init} of
    [t]'s, sharing the rate operator and every cache that does not depend
    on the initial distribution. For a
    GOOD model whose disaster state is reachable from [t]'s initial state
    this is the disaster analysis without a second build. Raises
    [Invalid_argument "Measures.rooted: ..."] on an empty list, a weight
    that is negative or not finite, a total that is not finite and
    positive, or a state that is not in [t]'s chain. *)

val built : t -> Semantics.built

val analysis : t -> Ctmc.Analysis.t
(** The underlying analysis session — e.g. to run raw [Ctmc] queries that
    share this model's caches. *)

val to_csl_model : t -> Csl.Checker.model
(** A CSL model with the labels {!tree_labels}, {!level_label}[ k] for
    each service level (k the level index) and {!component_labels} of
    every component, plus the reward structures {!reward_names}. *)

(** {2 The CSL vocabulary}

    The names {!to_csl_model} defines, for tools that check a query
    against a model without building it (lint). *)

val tree_labels : string list
(** ["down"] (the fault tree holds), ["operational"] (it does not) and
    ["full_service"] (service level 1). *)

val level_label : int -> string
(** ["sl_ge_<k>"]: service of at least the [k]-th of
    {!Model.service_levels}. *)

val component_labels : Component.t -> (string * string) list
(** [(label, fault-tree literal)] per literal of the component:
    ["<c>_failed"] for [c] (any mode) and ["<c>:<mode>"] for itself per
    failure mode other than the primary ["failed"]. *)

val reward_names : string list
(** ["cost"], ["component_cost"] and ["repair_cost"]. *)

(** {2 Dependability measures} *)

val unreliability : t -> time:float -> float
(** [P=? (true U<=t "not fully operational")]. The paper's Fig. 3 defines
    S_down as "the process line is not fully operational" (service < 1,
    i.e. beyond the spare allowance); this follows that choice. Use a
    model without repair units (as {!Model.make} allows) for a pure
    reliability reading; on a repairable chain this is the probability of
    a first service degradation before [t]. *)

val reliability : t -> time:float -> float
(** [1 - unreliability]. *)

val reliability_curve : t -> times:float list -> (float * float) list
(** All [*_curve] functions evaluate every point in one shared
    uniformization sweep, through the kernel's reward-projected face
    ({!Ctmc.Analysis.poisson_mixture_values}), and return points aligned
    1:1 with [times]: caller order is preserved and duplicates are kept. *)

val availability : t -> float
(** Long-run probability that the line is {e fully} operational (service
    level 1) — the paper's Table 2 measure. *)

val any_service_availability : t -> float
(** Long-run probability that the fault tree evaluates to false, i.e. that
    {e some} service is delivered. *)

val mean_time_to_degradation : t -> float
(** Expected time until the line is first not fully operational (system
    MTTF with respect to the full-service condition), from the initial
    state. Uses the expected-hitting-time engine ({!Ctmc.Absorption}). *)

val mean_time_to_service_loss : t -> float
(** Expected time until the fault tree first evaluates to true (total loss
    of service). *)

(** {2 Survivability (the paper's new measure)} *)

val survivability : t -> service_level:float -> time:float -> float
(** For a [t] built from a disaster state ({!Semantics.disaster_state}):
    probability that a service level of at least [service_level] is
    restored within [time] hours — [P=? (true U<=time S_sl(x))]. *)

val survivability_curve :
  t -> service_level:float -> times:float list -> (float * float) list

val most_likely_loss_scenario : t -> (string list * float) option
(** The most probable event sequence (component failures/repairs, as
    human-readable descriptions) leading from the initial state to total
    service loss (the fault tree holds), with the probability of that jump
    sequence in the embedded chain ({!Ctmc.Witness}). [None] if the
    initial state has already lost service (trivial) or loss is
    unreachable. *)

(** {2 Costs (CSRL reward measures)} *)

val instantaneous_cost : t -> time:float -> float
(** [R{"cost"}=? (I=t)]. *)

val accumulated_cost : t -> time:float -> float
(** [R{"cost"}=? (C<=t)]. *)

val accumulated_cost_curve : t -> times:float list -> (float * float) list

val cost_curves :
  t -> times:float list -> (float * float) list * (float * float) list
(** [(instantaneous, accumulated)] cost curves over one time grid from a
    single blocked sweep ({!Ctmc.Rewards.both_curves}) — both cost
    figures of a strategy for the price of one pass. *)

val steady_state_cost : t -> float

(** {2 Combining independent subsystems} *)

val combined_availability : float list -> float
(** Availability of a parallel composition of independent lines: at least
    one line available, [1 - prod (1 - a_i)] — the paper's
    [A1 + A2 - A1 A2] generalized. *)

(** {2 Sessions: which chain answers a query} *)

module Session : sig
  type measures := t

  type kind =
    | Symmetric
        (** the quotient under interchangeable components
            ([analyze ~symmetric:true]); without groups it is the full
            chain, bit for bit *)
    | Full

  type t
  (** One model's chains, each built the first time it is asked for,
      and the rule that routes a query to one of them. A session is
      {e not} synchronized: building a chain mutates it, so one owner
      (one domain or thread) at a time. *)

  val create : ?initial:Semantics.state -> ?levels:float list -> Model.t -> t
  (** Builds nothing. Enumerates the service levels unless [levels]
      gives them (they must be {!Model.service_levels} of the model) and
      finds the symmetry groups ({!Semantics.interchangeable}), each
      once. Both chains start from [initial] (default
      {!Semantics.all_up_state}). Raises [Invalid_argument] when the
      levels cannot be enumerated. *)

  val model : t -> Model.t

  val levels : t -> float list

  val route : t -> Csl.Ast.state_formula -> kind
  (** [Symmetric] when the query, asked of {!to_csl_model} on the
      symmetric chain, gets the answer the full chain gives; [Full]
      otherwise. Decided from the formula alone, nothing is built. On a
      model without symmetry groups every query routes to [Symmetric],
      which is then the full chain. Otherwise a query does when it is a
      steady-state operator ([S=?], [S~p], [R{..}=? [ S ]], [R{..}~p
      [ S ]]) whose operand is a boolean combination of labels other
      than the {!component_labels} of grouped components: the tree and
      service-level labels are group-invariant, reward structures are
      invariant by construction, and an unknown label fails alike on
      both chains. Transient operators, atomic expressions and the
      literals of grouped components route to [Full]. The groups were
      found by {!create}; a call does no more than walk the formula. *)

  val chain : t -> kind -> measures
  (** The chain of that kind, built on first use. A full build after
      the symmetric one takes its transition count as
      {!Semantics.build}'s [transitions] hint. Raises
      {!Semantics.Build_error} as {!analyze} does; a build that raised
      raises the same exception on every later call, without building
      again. *)

  val built : t -> (kind * measures) list
  (** The chains built so far, the symmetric one first. *)

  val full_size : t -> int
  (** The full chain's state count, read off the full chain when it is
      built and otherwise off the symmetric one, which counts its
      orbits' members (building it when neither is). The symmetric count
      is exact when [initial] is fixed by every group permutation, as
      the all-up state is. *)

  val kind_name : kind -> string
  (** ["symmetric"] or ["full"]. *)
end
