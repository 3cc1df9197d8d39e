(** Fault trees and quantitative service trees (Arcade's condition language).

    A fault tree is a monotone boolean expression over {e basic events}
    (component failure modes); the system is down when the tree evaluates to
    true. Arcade [5] uses AND/OR trees; we add K-of-N ("voting") gates, which
    the water-treatment model needs for its [m+1]-redundant pump groups.

    The paper's quantitative survivability measure evaluates the {e dual}
    {e service tree} (AND and OR swapped, literals negated: "component
    operational") with quantitative gate semantics:
    [ANDq = min], [ORq = average], and for a K-of-N gate
    [KOFNq = min(1, sum / k)] — the fraction of required throughput
    available. *)

type t =
  | Basic of string  (** a basic event, named after the component *)
  | And of t list
  | Or of t list
  | Kofn of int * t list
      (** [Kofn (k, gs)]: true when at least [k] of the inputs are true *)

val basic : string -> t

val and_ : t list -> t

val or_ : t list -> t

val kofn : int -> t list -> t
(** Raises [Invalid_argument] unless [1 <= k <= length inputs]. *)

val validate : t -> unit
(** Raises [Invalid_argument] on empty gates or malformed K-of-N bounds. *)

val basics : t -> string list
(** The distinct basic-event names, in first-occurrence order. *)

val eval : t -> (string -> bool) -> bool
(** [eval tree truth] evaluates with [truth name] giving each literal. *)

val dual : t -> t
(** The dual tree: AND and OR swapped, [Kofn (k, n inputs)] becomes
    [Kofn (n - k + 1, ...)]. If [eval tree failed] says "system down" for
    failure literals, then [eval (dual tree) operational] says "some service"
    for operational literals: [eval (dual t) f = not (eval t (not . f))]. *)

val eval_quantitative : t -> (string -> float) -> float
(** Quantitative service semantics over literal values in [[0, 1]]:
    AND = minimum, OR = average, K-of-N = [min 1 (sum / k)]. *)

val service_levels : t -> float list
(** All values the quantitative evaluation can take when every literal is 0
    or 1, sorted ascending. The paper's service intervals are the gaps
    between consecutive levels. Levels that agree to 12 significant digits
    count once; of those, the value of the last assignment (in binary
    counting order over the basics) stands.

    Cost: all 2{^n} assignments of the [n] basics are enumerated over a
    compiled, position-indexed copy of the tree, re-evaluating per
    assignment only the gates below a flipped bit, and only the distinct
    values are formatted. About 0.2 ms for the 11-basic Line 1 tree (on a
    2-vCPU VM); it doubles per basic. Raises [Invalid_argument] above 24
    basics. *)

val minimal_cut_sets : t -> string list list
(** Minimal sets of basic events whose simultaneous occurrence makes the
    tree true (MOCUS-style DNF expansion with absorption). Each cut set and
    the overall list are sorted. *)

val minimal_path_sets : t -> string list list
(** Minimal sets of basic events whose simultaneous {e absence} makes the
    tree false — for a fault tree, the minimal sets of components whose
    health guarantees system operation. Computed as the cut sets of the
    dual tree. *)

val to_string : t -> string
(** Compact syntax, e.g. ["or(and(a, b), kofn(2, c, d, e))"]. *)

val of_string : string -> t
(** Parses the {!to_string} syntax. Raises [Failure] with a position message
    on syntax errors. *)
