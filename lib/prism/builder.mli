(** State-space construction: from a PRISM model to an explicit CTMC.

    Explores the reachable state space breadth-first from the initial
    valuation. Unlabelled commands interleave; commands sharing an action
    label synchronize across every module whose alphabet contains that
    action, with the product of the alternatives' rates (PRISM's CTMC
    semantics). Self-loop rates are discarded (they do not affect a CTMC's
    behaviour). *)

type built = {
  chain : Ctmc.Chain.t;
  var_names : string array;  (** global variable order *)
  var_is_bool : bool array;  (** whether each variable is boolean *)
  state_vectors : int array array;
      (** [state_vectors.(s)] is the valuation of state [s] (booleans as
          0/1), indexed like [var_names] *)
  index_of_vector : int array -> int option;
      (** look up a state index by valuation *)
  labels : (string * bool array) list;
      (** each [label] definition evaluated in every state *)
  reward_structures : (string option * Numeric.Vec.t) list;
      (** each [rewards] block evaluated in every state *)
}

exception Build_error of string

val build : ?max_states:int -> Ast.model -> built
(** [max_states] (default [2_000_000]) aborts runaway explorations with
    {!Build_error}. Other causes: type errors, out-of-range assignments,
    a module writing another module's variable, or negative rates. *)

val label_pred : built -> string -> int -> bool
(** [label_pred b name] is the predicate of the named label; raises
    [Not_found] if the model has no such label. *)

val state_pred : built -> Ast.expr -> int -> bool
(** Evaluate an arbitrary boolean expression as a predicate over built
    states (used by the CSL checker for nested formulas). *)
