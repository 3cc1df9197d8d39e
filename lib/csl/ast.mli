(** Abstract syntax of CSL / CSRL queries.

    Covers the fragment the paper's measures need (and a bit more): boolean
    state formulas over labels and atomic PRISM expressions, the
    probabilistic operator [P] with next / (time-bounded) until / eventually
    / globally path formulas, the steady-state operator [S], and CSRL's
    reward operator [R] with instantaneous ([I=t]), cumulative ([C<=t]) and
    steady-state ([S]) forms. Each of [P], [S], [R] either carries a
    probability/value bound (usable as a nested state formula) or is a
    top-level query ([=?]). *)

type comparison = Lt | Le | Gt | Ge

type bound =
  | Query  (** [=?] *)
  | Bounded of comparison * float  (** e.g. [>= 0.99] *)

type interval =
  | Unbounded
  | Upto of float  (** [<= t] *)
  | Within of float * float  (** [[a,b]] *)

type state_formula =
  | True
  | False
  | Label of string  (** ["name"]: a label defined in the model *)
  | Atomic of Prism.Ast.expr  (** a boolean expression over state variables *)
  | Not of state_formula
  | And of state_formula * state_formula
  | Or of state_formula * state_formula
  | Implies of state_formula * state_formula
  | P of bound * path_formula
  | S of bound * state_formula
  | R of string option * bound * reward_query
      (** reward-structure name (None = the model's unnamed structure) *)

and path_formula =
  | Next of interval * state_formula
      (** [X phi], [X<=t phi], [X[a,b] phi]: the first jump lands in a
          [phi] state and happens within the interval *)
  | Until of state_formula * interval * state_formula
  | Eventually of interval * state_formula
  | Globally of interval * state_formula

and reward_query =
  | Instantaneous of float  (** [I=t] *)
  | Cumulative of float  (** [C<=t] *)
  | Steady  (** [S] *)

val to_string : state_formula -> string
