(** Arcade architectural models.

    A model assembles basic components, repair units, spare management
    units and a fault tree. A basic event of the fault tree is either a
    component name (["pump1"]: true when the component is failed, in any
    mode) or a component-and-mode reference (["valve:leak"]: true when the
    component is failed in that specific mode). The model is validated on
    construction: component names are unique, every repair unit and spare
    unit references existing components, no component is repaired by two
    units, and the fault tree's basic events resolve. Components not
    covered by any repair unit are simply never repaired (useful for pure
    reliability models). *)

type t = private {
  name : string;
  components : Component.t list;
  repair_units : Repair.t list;
  spare_units : Spare.t list;
  fault_tree : Fault_tree.t;
}

val make :
  ?repair_units:Repair.t list ->
  ?spare_units:Spare.t list ->
  name:string ->
  components:Component.t list ->
  fault_tree:Fault_tree.t ->
  unit ->
  t

val component : t -> string -> Component.t
(** Raises [Not_found]. *)

val split_literal : string -> string * string option
(** Split a fault-tree basic event into component name and optional mode
    name (["valve:leak"] gives [("valve", Some "leak")]). *)

val component_names : t -> string list
(** In declaration order. *)

val repair_unit_of : t -> string -> Repair.t option
(** The unit responsible for a component, if any. *)

val spare_unit_of : t -> string -> Spare.t option

val service_tree : t -> Fault_tree.t
(** The dual of the fault tree, with literals read as "component
    operational" — the paper's quantitative service tree. *)

val service_levels : t -> float list
(** All quantitative service levels the model can be in, ascending
    (including 0 and 1). *)

val with_repair_units : t -> Repair.t list -> t
(** Replace the repair organisation (used to compare strategies on one
    architecture). Re-validates. *)
