(** Iterative linear solvers used by the CTMC engine.

    All solvers are matrix-free over {!Sparse.t} and geared towards the two
    systems stochastic model checking needs: the singular steady-state system
    [pi Q = 0, sum pi = 1] and the non-singular reachability systems
    [(I - A) x = b] with sub-stochastic [A].

    {b Convergence.} Each sweep's max-norm change is tested against the
    absolute tolerance [tol] and, when given, the relative tolerance
    [rel_tol] (change small compared to the current iterate's max norm —
    the guard against false verdicts on ill-conditioned large-N chains).
    The {!convergence} record says which criterion fired.

    {b One loop.} Every solver is a sweep kernel over one convergence
    loop, which iterates a block of columns together — one matrix pass
    per sweep regardless of the width — and keeps one {!convergence}
    record per column. {!solve_gauss_seidel_multi} iterates a
    {!Multivec.t} block of K right-hand sides; the other solvers run the
    loop at width 1 over their {!Vec.t} kernels. The Gauss–Seidel
    solvers accept an update [?order] (e.g. an SCC topological order),
    which on DAG-like chains propagates dependencies in a single sweep.

    {b Telemetry.} Every solver returns its {!convergence} record(s),
    passes them to the caller's [?obs] hook (also on non-convergence,
    before raising), reports them to the {!Obs} layer ([solver.<name>.*]
    counters, gauge, residual histogram, the recent-solve ring and the
    [solver.column_iterations] histogram, one observation per column of
    every iterating solve) and, when tracing is on, runs under a
    [solver.<name>] span carrying
    [states]/[batch_width]/[iterations]/[residual]/[converged]
    attributes. *)

type criterion =
  | Absolute  (** the absolute max-norm test [delta <= tol] fired *)
  | Relative  (** the relative test [delta <= rel_tol * max|x|] fired *)

type convergence = {
  iterations : int;
  residual : float; (** max-norm change of the last sweep *)
  converged : bool;
  criterion : criterion option;
      (** which test accepted the iterate; [None] when not converged *)
}

exception
  Did_not_converge of {
    solver : string;  (** which solver gave up, e.g. ["gauss_seidel"] *)
    max_iter : int;  (** the iteration limit that was hit *)
    info : convergence;
  }
(** Raised when the iteration limit is hit. The registered exception
    printer renders a message naming the solver and the limit. *)

val solve_gauss_seidel :
  ?tol:float ->
  ?rel_tol:float ->
  ?max_iter:int ->
  ?obs:(convergence -> unit) ->
  ?order:int array ->
  ?x0:Vec.t ->
  Sparse.t ->
  Vec.t ->
  Vec.t * convergence
(** [solve_gauss_seidel a b] solves [a x = b] by Gauss–Seidel sweeps.
    Requires non-zero diagonal entries. [tol] (default [1e-12]) bounds the
    max-norm change between sweeps; [max_iter] defaults to [100_000].
    [order], when given, must be a permutation of the row indices and
    fixes the within-sweep update sequence; [x0] (default zero) is the
    starting iterate and must have the system's dimension. Returns the
    solution and convergence information; raises [Did_not_converge] when
    the iteration limit is hit. [obs] receives the final convergence
    record exactly once per call, converged or not. *)

val solve_gauss_seidel_multi :
  ?tol:float ->
  ?rel_tol:float ->
  ?max_iter:int ->
  ?obs:(convergence -> unit) ->
  ?order:int array ->
  ?x0:Multivec.t ->
  Sparse.t ->
  Multivec.t ->
  Multivec.t * convergence array
(** [solve_gauss_seidel_multi a b] solves [a X = B] for all columns of
    [b] at once with blocked Gauss–Seidel sweeps. All columns iterate
    together (one matrix pass per sweep); each column's record carries
    the sweep count at which {e that} column converged and its own last
    residual, and [obs] is invoked once per column. Raises
    [Did_not_converge] for the first unconverged column — after every
    column has been reported. *)

val steady_state_gauss_seidel :
  ?tol:float ->
  ?rel_tol:float ->
  ?max_iter:int ->
  ?obs:(convergence -> unit) ->
  exit:Vec.t ->
  Sparse.t ->
  Vec.t * convergence
(** [steady_state_gauss_seidel ~exit rt] solves [pi Q = 0] with
    [sum pi = 1] for an {e irreducible} CTMC with generator
    [Q = R - diag(exit)], from the transposed rates [rt = R^T] and the
    exit rates, without forming [Q]: {!Sparse.steady_sweep} plus L1
    renormalization per sweep, from the uniform vector. A zero exit
    rate raises [Invalid_argument] (a one-state chain returns [[|1.|]]). *)

val power_iteration :
  ?tol:float ->
  ?rel_tol:float ->
  ?max_iter:int ->
  ?obs:(convergence -> unit) ->
  Sparse.t ->
  Vec.t ->
  Vec.t * convergence
(** [power_iteration p pi0] iterates [pi <- pi P] to a fixed point; [p] must
    be a stochastic matrix. Used as an independent cross-check of the
    steady-state solver on aperiodic chains. *)
