(** Arcade basic components.

    A basic component (BC) has one operational mode and one or more failure
    modes (the paper's case study uses the single-mode subclass: "all
    components can only fail in one mode"). Failure and repair delays are
    exponential (or Erlang, see [repair_stages]) with the per-mode means.
    Components carry the cost rates the paper's performability analysis
    uses: a cost per hour while failed (and optionally while operational).

    The component's [mttf]/[mttr]/[failed_cost]/[repair_stages] fields
    describe the {e primary} failure mode (named ["failed"]); additional
    modes — e.g. a "leak" next to a "burst" — go in [extra_modes] and can
    be referenced in fault trees as ["name:mode"]. *)

(** One failure mode of a component. *)
type failure_mode = private {
  fm_name : string;
  fm_mttf : float;
  fm_mttr : float;
  fm_failed_cost : float;
  fm_repair_stages : int;
}

type t = private {
  name : string;
  mttf : float;  (** mean time to failure, hours (primary mode) *)
  mttr : float;  (** mean time to repair, hours (primary mode) *)
  failed_cost : float;  (** cost per hour while failed (primary mode) *)
  operational_cost : float;  (** cost per hour while operational *)
  repair_stages : int;
      (** Erlang stages of the repair-time distribution: 1 (default) gives
          the paper's exponential repairs; [k] gives an Erlang-k repair
          with the same mean [mttr] and coefficient of variation
          [1/sqrt k] — the standard phase-type way to model repairs with
          low variance (scheduled replacements, fixed procedures). *)
  extra_modes : failure_mode list;
      (** further failure modes beyond the primary one (empty by default) *)
}

val failure_mode :
  ?failed_cost:float ->
  ?repair_stages:int ->
  name:string ->
  mttf:float ->
  mttr:float ->
  unit ->
  failure_mode
(** An extra failure mode ([failed_cost] defaults to [3.], [repair_stages]
    to [1]). Raises [Invalid_argument] for the values {!make} rejects. *)

val make :
  ?failed_cost:float ->
  ?operational_cost:float ->
  ?repair_stages:int ->
  ?extra_modes:failure_mode list ->
  name:string ->
  mttf:float ->
  mttr:float ->
  unit ->
  t
(** [failed_cost] defaults to [3.] and [operational_cost] to [0.] — the
    paper's cost model; [repair_stages] defaults to [1]. Raises
    [Invalid_argument] for an MTTF or MTTR that is not positive and
    finite (NaN included), a cost rate that is not finite and
    non-negative, a non-positive stage count, or an empty name. *)

val stage_rate : t -> float
(** Rate of each Erlang repair stage: [repair_stages / mttr] (primary
    mode). *)

val modes : t -> failure_mode list
(** All failure modes: the primary one (named ["failed"]) followed by
    [extra_modes]. *)

val mode_failure_rate : failure_mode -> float

val mode_stage_rate : failure_mode -> float
(** [fm_repair_stages / fm_mttr]. *)

val failure_rate : t -> float
(** [1 / mttf]. *)

val repair_rate : t -> float
(** [1 / mttr]. *)
