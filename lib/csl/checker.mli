(** CSL / CSRL model checking over explicit CTMCs.

    Implements the standard algorithms (Baier–Haverkort–Hermanns–Katoen):
    bounded until via uniformization on a transformed chain, unbounded until
    via the embedded DTMC, the [S] operator via bottom-SCC analysis, and the
    CSRL reward operators via Markov reward model analysis. *)

type model = {
  chain : Ctmc.Chain.t;
  analysis : Ctmc.Analysis.t;
      (** the cached analysis session every query runs through: checking
          several formulas against one model shares the transposed rates,
          Fox–Glynn weights and steady-state vector. *)
  label : string -> (int -> bool) option;  (** resolve a quoted label *)
  atomic : Prism.Ast.expr -> (int -> bool) option;
      (** resolve an atomic expression over state variables *)
  reward : string option -> Numeric.Vec.t option;  (** resolve a reward structure *)
}

val of_built : ?analysis:Ctmc.Analysis.t -> Prism.Builder.built -> model
(** Wrap a built PRISM model: labels, variables and reward structures
    resolve to what the model defines. [analysis] injects an existing
    session for the model's chain (it is used only if it wraps exactly that
    chain); by default a fresh one is created. *)

val of_chain :
  ?analysis:Ctmc.Analysis.t ->
  ?labels:(string * (int -> bool)) list ->
  ?rewards:(string option * Numeric.Vec.t) list ->
  Ctmc.Chain.t ->
  model
(** Wrap a bare chain with explicitly provided labels and rewards (atomic
    expressions are not resolvable in this case). [analysis] as in
    {!of_built}. *)

exception Unsupported of string
(** Raised for ill-formed checks: unknown labels, unresolvable atomics,
    a nested [=?] query, or a top-level query applied where a boolean is
    needed. *)

type result =
  | Value of float  (** a [=?] query *)
  | Satisfied of bool  (** a boolean formula, evaluated in the initial state(s) *)

val satisfaction : model -> Ast.state_formula -> bool array
(** Per-state satisfaction of a boolean state formula. Nested [P/S/R] with
    bounds are checked recursively; [=?] queries raise {!Unsupported}. *)

val check : model -> Ast.state_formula -> result
(** Top-level evaluation. [=?] queries return [Value] (weighted by the
    initial distribution for [P], [R]); other formulas return [Satisfied]
    (true iff every state with positive initial probability satisfies the
    formula). *)

val check_string : model -> string -> result
(** Parse and {!check}. *)

val value : model -> string -> float
(** Parse and evaluate a query that must yield a numeric value; raises
    {!Unsupported} otherwise. *)
