(** Component importance measures.

    Classical reliability-importance indices over an Arcade model's fault
    tree, treating components as independent with given unavailabilities
    (exact for dedicated repair, where the chain is a product of independent
    two-state components; an approximation under shared repair units, where
    we take each component's {e marginal} steady-state unavailability from
    the full chain):

    - {e Birnbaum}: [dP(down)/dq_i] — sensitivity of system unavailability
      to the component's unavailability;
    - {e improvement potential}: unavailability drop if the component were
      perfect;
    - {e risk achievement worth}: unavailability ratio if the component were
      always failed;
    - {e Fussell–Vesely}: fraction of system unavailability in which the
      component participates.

    These rank where an operator should spend maintenance effort — the
    operational question behind the paper's repair-strategy comparison. *)

type t = {
  component : string;
  unavailability : float;  (** the marginal q_i used *)
  birnbaum : float;
  improvement_potential : float;
  risk_achievement_worth : float;
  fussell_vesely : float;
}

val system_unavailability : Model.t -> q:(string -> float) -> float
(** Probability that the fault tree is true when component [c] is failed
    independently with probability [q c]. Exact enumeration over the basic
    events (fault trees with at most ~20 basics). *)

val marginal_unavailabilities :
  ?analysis:Ctmc.Analysis.t -> Semantics.built -> (string * float) list
(** Per-basic-event steady-state unavailability from the built chain
    (marginals of the joint steady-state distribution); keys are the fault
    tree's basic events (component names or ["c:mode"] references). *)

val analyze : ?analysis:Ctmc.Analysis.t -> Semantics.built -> t list
(** Every index of every basic event, from its
    {!marginal_unavailabilities} and {!system_unavailability} with that
    event forced failed or perfect, sorted by decreasing Birnbaum
    importance. *)

val pp_table : Format.formatter -> t list -> unit
