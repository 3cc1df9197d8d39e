(** Blocks of K dense vectors in one unboxed buffer.

    A multivector holds [width] vectors of dimension [dim] in a single
    unboxed [float array] with {e interleaved} layout: element [(i, c)] —
    entry [i] of column [c] — lives at offset [i * width + c]. The K
    entries of one index are therefore contiguous, which is exactly what
    the multi-RHS sparse kernels ({!Sparse.mul_multi_into} and the
    blocked relaxation sweeps) need: every matrix entry that is decoded
    once serves all K columns from one cache line.

    Columns are exchanged with the rest of the engine as plain {!Vec.t}
    copies; the helpers below (axpy, scaling, per-column max norms)
    replace the per-vector loops previously duplicated across the solver
    and kernel layers. *)

type t

type buffer = float array
(** A flat, unboxed float array on the OCaml heap, of length
    [dim * width]. *)

val create : dim:int -> width:int -> t
(** A zero-filled multivector of [width] columns of dimension [dim].
    Raises [Invalid_argument] when either is negative or [width] is 0 with
    a positive [dim]. *)

val dim : t -> int

val width : t -> int

val data : t -> buffer
(** The underlying storage; element [(i, c)] is at [i * width t + c].
    Exposed for the kernels in {!Sparse} and the solvers — ordinary
    callers should use the typed accessors below. *)

val get : t -> int -> int -> float
(** [get v i c] is entry [i] of column [c]; bounds-checked. *)

val set : t -> int -> int -> float -> unit

val fill : t -> float -> unit

val copy : t -> t

val blit : t -> t -> unit
(** [blit src dst] copies every entry of [src] into [dst], of the same
    shape. *)

val of_cols : Vec.t array -> t
(** Pack an array of equal-length vectors as the columns of a fresh
    multivector. Raises [Invalid_argument] on an empty array or ragged
    lengths. *)

val to_cols : t -> Vec.t array
(** Unpack every column as a fresh {!Vec.t}. *)

val col : t -> int -> Vec.t
(** [col v c] is a fresh copy of column [c]. *)

val col_into : t -> int -> Vec.t -> unit
(** [col_into v c y] copies column [c] into [y] (of dimension [dim v]),
    so a column read many times is gathered out of the interleaved
    layout once. *)

val set_col : t -> int -> Vec.t -> unit
(** Overwrite column [c] from a vector of dimension [dim v]. *)

val axpy_from_col : float -> t -> int -> Vec.t -> unit
(** [axpy_from_col a v c y] updates [y <- y + a * v[:,c]] — the
    per-accumulator update of the batched uniformization sweep. *)

val dot_col : t -> int -> Vec.t -> float
(** [dot_col v c r] is the inner product [<v[:,c], r>] — the per-step
    reward projection of the batched uniformization sweep. *)

val axpy_uniform : float -> t -> t -> unit
(** [axpy_uniform a x y] updates [y <- a*x + y] with the same coefficient
    for every column — dense matrices stored as multivectors add this way. *)

val scale_uniform : float -> t -> unit

val max_norms : t -> float array
(** Per-column max norm [max_i |v(i, c)|]. *)

val abs_row_sum_max : t -> float
(** [max_i sum_c |v(i, c)|] — the matrix infinity norm when the
    multivector stores a dense matrix row-major. *)
