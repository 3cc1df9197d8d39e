(** Operational semantics: from an Arcade model to an explicit CTMC.

    The global state tracks, per component, whether it is operational, and,
    per repair unit, which components are under repair and which wait in
    the arrival queue. Failures never occur simultaneously (CTMC), matching
    the paper's prerequisite for the PRISM translation. Scheduling follows
    {!Repair}: a failed component goes straight to a free crew, otherwise
    it queues; on completion the strategy picks the most urgent waiting
    component (rate priority, ties FCFS). Dedicated units repair every
    failed component immediately. Preemptive units re-evaluate the assigned
    set after every event (preemptive-resume; memoryless repairs make this
    equal to preemptive-restart).

    Spare management units modulate failure rates: dormant spares fail at
    the dormancy-scaled rate (hot = full, warm = scaled, cold = never). *)

type state = {
  up : bool array;  (** per component, indexed like the model's list *)
  in_repair : int list array;
      (** per repair unit (model order), sorted component indices under
          repair; unused (always empty) for dedicated and preemptive units *)
  queue : int list array;
      (** per repair unit, waiting components in arrival order; for
          preemptive units this holds {e all} failed components *)
  stage : int array;
      (** per component, the number of completed Erlang repair stages (0
          unless the component's [repair_stages] exceeds 1 and its repair
          has progressed); an interrupted repair keeps its progress
          (preemptive-resume) *)
  failed_mode : int array;
      (** per component, the index of the active failure mode (0 = the
          primary mode; only meaningful while the component is down).
          Under FRF/FFF the mode's rates determine the scheduling
          priority. *)
}

type packed
(** The explored states in packed form: one fixed-width integer key per
    state (per component an up bit, a failure-mode field and a stage
    field; per repair unit in-repair and queue slots), interned in a
    {!Numeric.Intern} table whose ids are the chain's state indices, plus
    the model's fault and service trees with their literals resolved. *)

type built = {
  model : Model.t;
  chain : Ctmc.Chain.t;
  packed : packed;
  component_index : string -> int;
      (** raises {!Build_error} for an unknown name *)
  state_index : state -> int option;
      (** the index of a state record; [None] when the state was not
          reached or does not fit the model. On a symmetry-reduced build,
          the index of the state's orbit. *)
  full_size : int * int;
      (** (states, transitions) of the full chain. On a full build those of
          [chain]; on a symmetry-reduced build they are counted by orbits
          (see {!build}). *)
}

exception Build_error of string

val all_up_state : Model.t -> state
(** The fully operational state (empty queues). *)

val disaster_state : Model.t -> failed:string list -> state
(** The paper's GOOD construction: the given components start failed; since
    the failure order is unknown, each unit's queue is ordered by the
    strategy's own component priority (ties: model declaration order), and
    crews are already dispatched to the most urgent components. Entries may
    be component names (["pump1"], primary mode) or mode references
    (["valve:leak"]). *)

val build :
  ?max_states:int ->
  ?symmetric:bool ->
  ?initial:state ->
  ?transitions:int ->
  Model.t ->
  built
(** Explore the reachable state space from [initial] (default
    {!all_up_state}) and build the CTMC (initial distribution: point mass
    on [initial]). State [i] of the chain is the [i]-th state discovered
    breadth-first. Raises {!Build_error} when more than [max_states]
    (default [5_000_000]) states are reachable, or when [initial] does not
    match the model (dimensions, failure modes, list entries that are not
    members of their repair unit, a component listed twice).

    [transitions] is the expected number of transitions, such as the
    second half of the {!full_size} of the symmetric build of the same
    model: when it is exact, the rate matrix is written once, with no
    final copy. It changes nothing else.

    [~symmetric:true] builds the quotient under interchangeable
    components instead. Components form a group when they share the repair
    unit, the spare unit, their failure modes and costs, and when
    exchanging any two of them leaves the fault and service trees equal up
    to the order of gate children; besides, members of a cold spare unit
    form no group, the members of a warm spare unit must be contiguous in
    its member order, and the members must share the scheduling rank of
    every mode, or be single-mode members of a Priority unit whose ranks
    no other member's falls between (not in a preemptive unit with Erlang
    repairs), whose ranks the build then merges into the lowest. The
    groups do not depend on the order in which components are declared.
    Every key is canonicalized before it is
    interned (each group's members sorted by up bit, mode, stage,
    in-repair flag and queue position; the repair-unit lists remapped by
    the same permutation), so a state of the chain is one orbit of full
    states. The quotient is exact (ordinary lumpability): group-invariant
    measures (availability, service levels, costs, the fault tree) agree
    with the full chain's. [full_size] counts the orbits' members (of a
    merged group, only those that queue its members in rank order) and,
    per orbit, its size times the out-degree of its representative; this
    is the full build's size when [initial] is fixed by every group
    permutation (as the all-up state is). Without groups the build is the
    full one, bit for bit. On a reduced build the observations that tell group members apart raise
    [Invalid_argument]: {!state}, and {!literal_pred} of a grouped
    component. *)

val symmetry_groups : built -> string list list
(** The groups of interchangeable components a symmetric build reduced by, by
    name; [[]] on a full build and on a symmetric build that found none
    (then [chain] is the full chain). *)

val interchangeable : Model.t -> string list list
(** The groups [build ~symmetric:true] would reduce by, found without
    exploring a state: [symmetry_groups (build ~symmetric:true model)]. *)

(** {2 Per-state observations} *)

val state : built -> int -> state
(** [state b s] decodes state [s] (a fresh record). Raises
    [Invalid_argument] on a reduced build. *)

val literal_pred : built -> string -> int -> bool
(** Evaluate a fault-tree basic event (["c"] — failed in any mode — or
    ["c:mode"]) in a state. Raises [Invalid_argument] (when applied to the
    literal) for a grouped component of a reduced build. *)

val down_pred : built -> int -> bool
(** Fault-tree evaluation: true when the system is down in the state. *)

val operational_pred : built -> int -> bool
(** Negation of {!down_pred}. *)

val service_level : built -> int -> float
(** Quantitative service-tree evaluation in a state. *)

val service_at_least : built -> float -> int -> bool
(** [service_at_least b x]: predicate for the paper's [S_sl(x)] sets
    (service level >= x, with a 1e-9 tolerance). The first evaluation of
    any such predicate computes {!service_level} for every state once;
    later predicates on [b] (or on a copy sharing its [packed] states)
    read that array. *)

val cost_structures : built -> Ctmc.Rewards.structure * Ctmc.Rewards.structure
(** The paper's cost model per state as its two summands, computed in one
    pass: component costs (failed / operational rates), and per repair
    unit idle crews times idle cost plus busy crews times busy cost. *)
