(** Strong (ordinary) lumpability: CTMC state-space minimization.

    Splitter-based partition refinement (Valmari–Franceschinis worklist,
    O(m log n)): starting from a caller-supplied partition (states that must
    stay distinguishable, e.g. because they carry different labels or
    rewards), blocks are split until every state in a block has the same
    total rate into every other block. Rate sums are compared with an
    explicit absolute/relative tolerance predicate — two sums are equal when
    [|a - b| <= abs_tolerance + rate_tolerance * max |a| |b|] — not by
    rounding to a grid, so exactly-lumpable states can never be separated by
    a rounding boundary. The quotient chain preserves all transient and
    steady-state measures of block-constant predicates — the minimization
    the Arcade paper names as future work. *)

type result = {
  block_of : int array; (** block index of each original state *)
  blocks : int list array; (** members of each block *)
  quotient : Chain.t; (** lumped chain; state [b] represents block [b] *)
}

val partition_by_key : int -> (int -> string) -> int array
(** [partition_by_key n key] groups states [0..n-1] by [key]; returns the
    block index per state (dense, starting at 0). *)

val lump :
  ?rate_tolerance:float ->
  ?abs_tolerance:float ->
  Chain.t ->
  initial:int array ->
  result
(** [lump m ~initial] refines [initial] to the coarsest strongly lumpable
    partition and builds the quotient. [initial.(s)] is the block of state
    [s]; blocks must be numbered densely from 0. The refinement reads the
    generator's columns off [R^T] with each [-exit] diagonal merged in
    place. The partition and its block numbering depend on the rates
    alone. The quotient's initial distribution aggregates [m]'s; a chain
    with the same rates and another initial distribution gets its
    quotient from the same partition, with the initial distribution
    {!project}ed from its own. Two block-rate sums are
    considered equal when they differ by at most
    [abs_tolerance + rate_tolerance * max |a| |b|] (defaults [1e-12] and
    [1e-9]): the tolerances absorb float summation noise only — there is no
    grid, so no boundary can split exactly-lumpable states. Raises
    [Invalid_argument] on a non-dense partition, a size mismatch or a
    negative tolerance. *)

val lift : result -> Numeric.Vec.t -> Numeric.Vec.t
(** [lift r v] expands a per-block vector to a per-original-state vector. *)

val project : result -> Numeric.Vec.t -> Numeric.Vec.t
(** [project r v] sums a per-original-state vector to a per-block vector. *)
