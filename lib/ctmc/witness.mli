(** Witness paths: the most probable way to reach a target set.

    For diagnostics ("what is the likeliest failure scenario?") we search
    the embedded jump chain for the path from an initial state to a target
    state maximizing the product of jump probabilities — a shortest-path
    problem in [-log] space, solved with Dijkstra's algorithm. The result
    ignores dwell times (it is a discrete scenario, not a timed one), which
    is the usual notion of a counterexample/witness for unbounded
    reachability. *)

type t = {
  states : int list;  (** the path, starting at an initial state *)
  probability : float;
      (** product of embedded-chain jump probabilities along the path *)
}

val most_probable_path : Chain.t -> psi:(int -> bool) -> t option
(** [None] when no target state is reachable from the initial
    distribution's support. A target state with positive initial mass
    yields the trivial path with probability 1. *)
