(** Arcade repair units.

    A repair unit (RU) owns a set of components and a number of repair
    crews. When more components are failed than crews are available, the
    scheduling strategy picks which failed component is repaired next:

    - {e Dedicated}: one crew per component — every failed component is
      always under repair (the paper's DED reference strategy);
    - {e FCFS}: first come, first served;
    - {e FRF} (fastest repair first): smallest MTTR first;
    - {e FFF} (fastest failure first): smallest MTTF first;
    - {e Priority}: an explicit component order (most urgent first).

    Rate ties under FRF/FFF fall back to FCFS, as in the paper. Scheduling
    is non-preemptive by default: a crew finishes its current repair even if
    a higher-priority component fails meanwhile. The preemptive variant
    (preemptive-resume; with exponential repair times this equals
    preemptive-restart) is available as an extension. *)

type strategy =
  | Dedicated
  | Fcfs
  | Frf
  | Fff
  | Priority of string list  (** explicit order, most urgent first *)

type t = private {
  name : string;
  strategy : strategy;
  crews : int;  (** ignored by [Dedicated] (conceptually one per component) *)
  components : string list;  (** names of the components this RU repairs *)
  idle_cost : float;  (** cost per hour per idle crew *)
  busy_cost : float;  (** cost per hour per busy crew *)
  preemptive : bool;
}

val make :
  ?crews:int ->
  ?idle_cost:float ->
  ?busy_cost:float ->
  ?preemptive:bool ->
  name:string ->
  strategy:strategy ->
  components:string list ->
  unit ->
  t
(** Defaults: [crews = 1], [idle_cost = 1.], [busy_cost = 0.] (the paper's
    cost model), [preemptive = false]. Raises [Invalid_argument] for an
    empty component list, non-positive crew count, duplicate components, a
    cost rate that is not finite and non-negative (NaN included), or a
    [Priority] list that does not cover exactly the unit's components. *)

val strategy_to_string : strategy -> string

val strategy_of_string : string -> strategy
(** Inverse of {!strategy_to_string} for the non-[Priority] strategies
    ("dedicated", "fcfs", "frf", "fff", case-insensitive); raises
    [Invalid_argument] otherwise. *)

val crew_count : t -> int
(** Effective number of crews: the component count for [Dedicated], the
    configured [crews] otherwise. *)

val priority_rank : t -> (string -> Component.t) -> string -> int
(** [priority_rank ru lookup name] is the static scheduling rank of a
    component (smaller = more urgent): its MTTR order for FRF, MTTF order
    for FFF, position for [Priority]. FCFS and Dedicated rank every
    component equally (rank 0), so arrival order decides. Ties between
    distinct components resolve by the component-list position only at
    dispatch time (FCFS), not here. *)
