(** Sparse matrices in compressed-sparse-row (CSR) form.

    The CTMC engine stores generator and probability matrices in this format.
    Matrices are immutable once built; construction goes through {!Builder}
    (coordinate/triplet accumulation), {!Rows} (rows streamed in order) or
    {!of_triplets}.

    Storage is unboxed and lives on the OCaml heap: values in a
    [float array], row pointers in an [int array] and column indices
    packed two to an [int] (31 bits each, so an index takes 4 bytes and
    every row count, column count and entry count is at most [2^31 - 1];
    the builders raise [Invalid_argument] beyond). One matrix pass streams
    three flat arrays and decodes a column with a shift and a mask. On top of the single-vector products the
    module exposes {e blocked} kernels ({!mul_multi_into} and the
    relaxation sweeps) that push a {!Multivec.t} of K vectors through the
    matrix in a single pass — every decoded entry serves all K columns. *)

type t

(** Mutable triplet accumulator over unboxed growable arrays. Duplicate
    [(row, col)] entries are summed in insertion order (starting from
    [0.]) when the matrix is finalized, exact-zero sums are dropped, and
    the columns of every row come out strictly increasing. *)
module Builder : sig
  type matrix := t
  type t

  val create : rows:int -> cols:int -> t

  val add : t -> int -> int -> float -> unit
  (** [add b i j x] accumulates [x] at position [(i, j)]. Zero contributions
      are kept until finalization, where exact-zero sums are dropped.
      Raises [Invalid_argument] when [(i, j)] is out of range. *)

  val to_csr : t -> matrix
end

(** Row-streaming accumulator for rows that arrive in order (a state-space
    exploration emits each state's row once): entries go straight into
    growable unboxed CSR buffers, with no triplet staging. Each row obeys
    {!Builder}'s rules, so the same entries give the same matrix bit for
    bit. *)
module Rows : sig
  type matrix := t
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] is the expected number of entries. When the rows hold
      exactly that many, {!to_csr} returns the buffers they were written
      to, with no copy; any other count costs one copy of the entries.
      Default [0]. *)

  val add : t -> int -> float -> unit
  (** [add b j x] appends [x] at column [j] of the open row. Raises
      [Invalid_argument] on a negative column. *)

  val end_row : t -> unit
  (** Closes the open row (possibly empty): its entries are stably sorted
      by column, duplicates summed in insertion order and exact-zero sums
      dropped. *)

  val to_csr : t -> cols:int -> matrix
  (** The closed rows, in order, as a matrix with [cols] columns; [b] must
      not be used afterwards. Raises [Invalid_argument] when the open row has entries
      or a column is [>= cols]. *)
end

val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t

val of_dense : float array array -> t

val to_dense : t -> float array array

val rows : t -> int

val cols : t -> int

val nnz : t -> int
(** Number of stored (structurally non-zero) entries. *)

val get : t -> int -> int -> float
(** [get m i j] is the entry at [(i, j)] ([0.] when not stored).
    Logarithmic in the number of entries of row [i]. Raises
    [Invalid_argument] when [(i, j)] is out of range. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** [iter_row m i f] applies [f col value] to every stored entry of row [i].
    Raises [Invalid_argument] when [i] is out of range. *)

val iteri : t -> (int -> int -> float -> unit) -> unit

val row_start : t -> int -> int
(** [row_start m i] is the position of row [i]'s first stored entry
    ([row_start m (rows m) = nnz m]; bounds-checked). With {!col_at} it
    lets graph algorithms ({!Digraph}) walk the pattern without a
    closure. *)

val col_at : t -> int -> int
(** [col_at m p] is the column of the stored entry at position [p]. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec m x] is the matrix-vector product [m * x]. *)

val vec_mul : Vec.t -> t -> Vec.t
(** [vec_mul x m] is the vector-matrix product [x^T * m] (row vector). *)

val vec_mul_into : Vec.t -> t -> Vec.t -> unit

(** {2 Blocked (multi-vector) kernels}

    One matrix pass serving every column of a {!Multivec.t}: the K
    entries of a state are contiguous in the interleaved layout, so each
    decoded [(value, column)] pair feeds K fused multiply-adds from one
    cache line instead of re-reading the matrix K times. *)

val mul_multi_into :
  ?uniformize:Vec.t * float -> ?skip:Bytes.t -> t -> Multivec.t -> Multivec.t -> unit
(** [mul_multi_into m x y] writes [m * x] into [y] column-wise, as a
    gather: entry [i] of each column is summed over row [i] of [m] in
    increasing column order, in local accumulators (a direct loop at
    width 1, register groups of 4, 2 and 1 columns above). Each column's
    result is bit-identical to {!mul_vec} on that column, whatever the
    width. For the row-vector product [x^T * m] (distribution
    push-forward) call it on [transpose m]: the rows of a built
    transpose list their source states in increasing order, so for a
    finite [x] every entry comes out bit for bit as {!vec_mul} sums it. [x] and [y] must not
    alias and must share their width.

    [~uniformize:(exit, lambda)] applies the uniformized operator
    [I + (m - diag exit) / lambda] of a square rate matrix [m] on the
    fly: entry [i] of each column becomes
    [(1 - exit(i)/lambda) x(i) + (1/lambda) (sum_j m(i,j) x(j))], one
    reciprocal serving both scalings. Called on [R] it is a backward
    uniformization step, on [R^T] a forward one, with no scaled copy of
    the matrix. [~skip] (one byte per row) leaves every row [i] with
    [skip.[i] <> '\000'] ungathered: [y] keeps its entries there. Raises
    [Invalid_argument] when [exit] or [skip] has the wrong length or
    [uniformize] is given for a non-square matrix. *)

(** {2 Relaxation sweep kernels}

    One in-place sweep of [a x = b]; {!Solver} owns iteration and
    convergence logic and validates [order] (a permutation of the rows
    giving the update sequence — SCC topological order makes
    Gauss–Seidel propagate dependencies in one sweep on DAG-like
    chains). These kernels do not validate their inputs. *)

val gauss_seidel_sweep :
  ?order:int array -> t -> diag:Vec.t -> b:Vec.t -> x:Vec.t -> float
(** Updates [x] in place, returns the max-norm change of the sweep. *)

val steady_sweep : t -> exit:Vec.t -> x:Vec.t -> float
(** One in-place Gauss–Seidel sweep of [x Q = 0], [Q = R - diag(exit)],
    over the transposed rates [rt = R^T]: in state order,
    [x(j) <- sum_{i <> j} rt(j,i) x(i) / exit(j)], row [j] summed in
    increasing [i]. Returns the max-norm change; does not normalize. *)

val gauss_seidel_sweep_multi :
  ?order:int array ->
  t ->
  diag:Vec.t ->
  b:Multivec.t ->
  x:Multivec.t ->
  deltas:float array ->
  unit
(** Blocked {!gauss_seidel_sweep} over every column of [x]; writes each
    column's max-norm change into [deltas] (length = width). *)

val transpose : t -> t
(** Row [j] of [transpose m] lists the rows [i] of [m] with a stored
    entry in column [j], in increasing [i]; stored zeros are dropped. *)

val map : (float -> float) -> t -> t
(** Apply a function to every stored entry (structure preserved). *)

val row_sums : t -> Vec.t

val equal : ?eps:float -> t -> t -> bool
(** Entry-wise comparison within [eps] (default [0.]), including entries
    stored in only one of the two matrices. *)
