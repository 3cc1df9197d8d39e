(** Cached analysis sessions over a CTMC.

    The paper's tool chain builds each model once and then checks many
    CSL/CSRL properties against it. The expensive derived artifacts —
    the transposed rate matrix forward sweeps gather over, Fox–Glynn
    weight vectors, embedded jump matrix, (B)SCC decomposition,
    steady-state vector — are shared across queries
    through an analysis session: every query module ({!Transient},
    {!Reachability}, {!Rewards}, {!Steady_state}, {!Absorption}) accepts
    an optional [?analysis] session and memoizes what it derives into it.
    A session holds one rate operator: transient sweeps uniformize it on
    the fly, and time-bounded until masks its rows instead of building an
    absorbed copy of the chain.

    Sessions are not thread-safe; use one per chain per thread (a
    session and its {!with_init} views count as one). *)

type t

val create : Chain.t -> t
(** A fresh session wrapping [chain]. Nothing is computed up front; every
    derived artifact is built lazily on first demand. *)

val with_init : t -> Numeric.Vec.t -> t
(** [with_init t init] is a session over [Chain.with_init (chain t) init]:
    the same states and rate operator, another initial distribution. It
    shares by reference every cache of [t] that depends on the rates
    alone — the uniformization rate, {!embedded}, {!rates_transposed},
    the SCC decomposition, {!bottom_sccs} and the {!weights} table — so
    whichever of the two sessions derives one of them first, both see it.
    The steady-state vectors (BSCC weights) depend on the initial
    distribution and stay per session. Both sessions must
    stay in one domain. Raises [Invalid_argument] as {!Chain.with_init}
    does. *)

val chain : t -> Chain.t
(** The wrapped chain. *)

val wraps : t -> Chain.t -> bool
(** [wraps t m] is true when [t] is a session for exactly (physically) the
    chain [m] — the guard the query modules use before trusting a session
    passed alongside a chain. *)

val for_chain : t option -> Chain.t -> t
(** [for_chain analysis m] is [analysis] when it wraps [m], and a fresh
    throwaway session otherwise — the standard entry-point shim: queries
    without a session behave exactly as before, queries with one share its
    caches. *)

(** {2 Memoized derived artifacts} *)

val embedded : t -> Numeric.Sparse.t
(** The embedded jump matrix, built once per session. *)

val weights : ?epsilon:float -> t -> float -> Numeric.Fox_glynn.t
(** [weights t time] is the Fox–Glynn weight vector for [lambda * time],
    memoized by [(lambda * time, epsilon)]. [epsilon] defaults to [1e-12]
    (the {!Numeric.Fox_glynn.compute} default). Raises [Invalid_argument]
    on a non-finite [time] or product, or a non-finite / non-positive
    [epsilon] — NaN keys can never hit a float-keyed cache (generic
    equality has [nan <> nan]), so they are rejected at the entry point
    instead of silently recomputing forever. *)

val rates_transposed : t -> Numeric.Sparse.t
(** [R^T], the transposed rate matrix (row [j] lists the states with a
    rate into [j]), built once per session. Forward sweeps and the
    steady-state sweep read its rows; unbounded until searches it for
    coreachability. *)

val bottom_sccs : t -> int array array
(** The recurrent classes, derived once per session from the
    {!Numeric.Digraph.sccs} decomposition of the rate matrix, itself
    computed once per session (no second Tarjan run). *)

val is_irreducible : t -> bool

type restricted = {
  states : int array;  (** row [i] of the system solves state [states.(i)] *)
  matrix : Numeric.Sparse.t;  (** [I - A_S] *)
  order : int array;  (** the SCC Gauss–Seidel update order of the rows *)
}
(** An [(I - A_S) x = b] system over the embedded jump matrix [A]
    restricted to a state set [S]. *)

val restricted_system :
  t ->
  (int -> bool) ->
  rhs:(int -> 'r) ->
  leave:('r -> int -> int -> float -> unit) ->
  (restricted * 'r) option
(** [restricted_system t inside ~rhs ~leave] builds the system over
    [S = { s | inside s }]: rows are numbered in state order, and row [i]
    stores its diagonal [1.] followed by [-p] for each embedded step
    [states.(i) -> j] with [j] in [S], in row order. [rhs dim] creates
    the caller's right-hand side; every embedded step [states.(i) -> j]
    that leaves [S] is handed to [leave rhs i j p] in the same pass.
    [order] sorts the rows by the Tarjan component index of their state
    (ties keep the natural order): component indices reverse-
    topologically order the condensation, so ascending order updates a
    state's successors before the state itself, which collapses the
    Gauss–Seidel sweep count on DAG-like subgraphs (e.g. reachability
    systems of acyclic reliability models). Uses the session-cached
    {!embedded} matrix and SCC decomposition. [None] when [S] is empty, without
    building either. *)

val cached_steady : t -> tol:float -> (unit -> Numeric.Vec.t) -> Numeric.Vec.t
(** [cached_steady t ~tol compute] returns the memoized steady-state vector
    for tolerance [tol], running [compute] only on the first call. The
    result is a private copy; callers may mutate it freely. (The solver
    lives in {!Steady_state}, which sits above this module; the session
    only owns the storage.) Raises [Invalid_argument] on a non-finite or
    non-positive [tol] (a NaN key would miss the float-keyed cache on
    every call). *)

val fnv1a64 : string -> int64
(** 64-bit FNV-1a hash of a string, for content-addressing whole inputs
    (the analysis daemon keys its model-session cache on the hash of the
    XML source). *)

(** {2 Absorbing-row masks} *)

type absorbing
(** A set of states of the session's chain made absorbing, with the
    uniformization rate of the chain in which they are. *)

val absorbing : t -> (int -> bool) -> absorbing
(** [absorbing t pred] masks the states satisfying [pred] ([pred] is
    called once per state). A mixture pass given the mask sweeps the
    chain in which those states are absorbing (their transitions
    removed) — exactly, in exact arithmetic — without building it: its
    rate is
    [Chain.uniformization_rate ~absorbing:pred (chain t)], so Fox–Glynn
    windows and step counts are those of the absorbed chain, and its
    gathers skip the masked rows of the session's own rate operator. *)

(** {2 The shared uniformization kernel} *)

type dir = Forward | Backward

type coeff =
  | Pmf  (** Poisson probabilities: transient mixtures. *)
  | Tail_over_lambda
      (** [P(N >= k+1) / lambda]: the accumulated-reward integral. *)

type batch = {
  start : Numeric.Vec.t;  (** this stream's [v_0] *)
  coeff : coeff;
  times : float list;
      (** evaluation grid: any order, duplicates allowed, each time
          finite and non-negative *)
}
(** One coefficient stream of a batched sweep. *)

val poisson_mixture_batch :
  ?epsilon:float ->
  ?absorbing:absorbing ->
  t ->
  dir:dir ->
  batch list ->
  Numeric.Vec.t list list
(** [poisson_mixture_batch t ~dir batches] evaluates K independent
    mixture streams — each with its own start vector, coefficient kind
    and time grid, but sharing the chain and direction — with {e one}
    blocked sweep. A stream's value at [time] is [sum_k c_k v_k] with
    [v_0 = start] and [v_{k+1} = v_k P] ([Forward]) or [P v_k]
    ([Backward]) over the uniformized matrix [P = I + Q/lambda] (applied
    on the fly from the rates, never built), [c_k] given by [coeff], and
    [k] ranging over the Fox–Glynn window for [lambda * time]. This one
    kernel implements forward transient distributions, backward value
    vectors (bounded until) and accumulated rewards; a single vector is a
    one-stream batch.

    The iterates form a {!Numeric.Multivec.t} and every
    step is a single blocked gather ({!Numeric.Sparse.mul_multi_into} with
    [~uniformize], over [R] backward and over {!rates_transposed}
    forward), so the operator is decoded once per
    step for all K streams (this is how an instantaneous- and an
    accumulated-cost curve, or several initial distributions, ride one
    uniformization). Streams whose start vectors are physically equal or
    equal bit for bit share one iterate column (so [-0.] and [+0.], or two
    NaNs, never merge); the block is as wide as the number of distinct
    starts. Every result is bit-identical to the stream's solo sweep. The
    sweep runs to the largest Fox–Glynn right edge across all streams,
    with one accumulator per (stream, distinct time), so a K-point curve
    costs roughly the SpMVs of its last point instead of K windowed
    segments; streams with shorter windows simply stop accumulating early.

    Results align 1:1 with [batches] and with each stream's [times]: the
    caller's order is preserved, duplicates each get their own
    (independently mutable) vector, an empty [times] yields [[]], and a
    zero time yields a copy of [start] ([Pmf]) or zeros
    ([Tail_over_lambda]). Raises [Invalid_argument] on a negative, NaN or
    infinite time (named [Analysis.poisson_mixture_batch], see
    {!check_times}) or a dimension mismatch.

    With [~absorbing] (backward only) the pass sweeps the chain in which
    the masked states are absorbing: their rows are not gathered and keep
    their start values, and the pass's rate is the mask's. Raises
    [Invalid_argument] for a forward pass with a mask (use
    {!poisson_mixture_values}) or a mask of another session's chain. *)

val poisson_mixture_values :
  ?epsilon:float ->
  ?absorbing:absorbing ->
  t ->
  dir:dir ->
  (batch * Numeric.Vec.t) list ->
  float list list
(** Reward-projected face of {!poisson_mixture_batch}: each stream comes
    with a reward (or indicator) vector [r], and every point is the scalar
    [<sum_k c_k v_k, r>] instead of the vector. The same blocked sweep
    runs, but a step records [y_k = <v_k, r>] once per distinct (iterate
    column, reward) — streams sharing a column and a bit-equal reward
    share the dot — and each time point adds [c_k * y_k], so no
    full-length accumulator exists; a dot is taken only at steps where a
    coefficient of one of its streams is non-zero. This is the face behind the scalar curve entry points
    ({!Rewards.instantaneous_curve}, {!Rewards.accumulated_curve},
    {!Rewards.both_curves}, {!Reachability.bounded_until_curve}).

    Results align 1:1 with the pairs and with each stream's [times];
    duplicates and unsorted times are kept as given, and a zero time
    yields [<start, r>] ([Pmf]) or [0.] ([Tail_over_lambda]). Counters,
    spans and validation are those of {!poisson_mixture_batch}; raises
    [Invalid_argument] also when a reward's dimension differs from the
    chain's.

    [~absorbing] works in both directions. Forward, the iterates carry
    only the mass outside the mask (its rows are skipped); the masked part
    of [<v_k, r>] is the masked part of [<v_0, r>] plus a running inflow,
    one extra dot per step with [g(i) = sum_{j masked} R(i,j) r(j)],
    built once per pass from the rows of [R]. Equal to the sweep of the
    absorbed chain in exact arithmetic; rounding differs. *)

val check_times : string -> float list -> unit
(** [check_times who times] raises [Invalid_argument "<who>: times must be
    finite and non-negative (got x)"] on the first negative, NaN or
    infinite time — the validation the mixture kernel and the curve entry
    points share. *)

(** {2 Instrumentation} *)

(** Sessions keep no counters of their own: every cache event is counted
    once, in the process-wide {!Obs.Metrics} registry, which aggregates
    all sessions (views included) on every domain,
    and records only while metrics are enabled. Read a session's work as
    the growth of these instruments across its calls:
    - [analysis.embedded_builds], [analysis.weight_computes],
      [analysis.weight_hits], [analysis.steady_solves] and
      [analysis.steady_hits]: cache builds and hits;
    - [analysis.mixture_passes]: sweeps of the shared uniformization
      kernel (calls of any of its entry points, vector or values face,
      that did numerical work);
    - [analysis.mixture_steps]: matrix passes across those sweeps (a
      blocked step counts once however many streams ride it), the
      observable a multi-point curve saves on versus per-point segments;
    - [analysis.batch_columns]: total stream count across those sweeps,
      so [batch_columns / mixture_passes] is the mean number of streams
      per sweep (streams that share an iterate column each count);
    - the gauge [analysis.fg_mass_deficit] (worst Fox–Glynn truncation of
      the last sweep) and the [analysis.sweep_length] histogram.

    When tracing is on, every kernel sweep (either
    face) runs under an [analysis.mixture] span (with
    [states]/[nnz]/[batch_width]/[streams]/[times]/[sweep_length]/[spmvs]
    attributes; [nnz] is the stored entries of the operator each step
    gathers over, [batch_width] the iterate block width, i.e. the number
    of distinct start vectors, and [streams] the stream count) with
    [mixture.weights] (Fox–Glynn) and [mixture.sweep] (blocked gathers
    plus the per-step accumulation) child phases ([mixture.sweep] carries
    [batch_width] and [streams] too); masked passes are no different.
    {!rates_transposed} and the SCC decomposition build under
    [analysis.transpose_rates] and [analysis.sccs] spans. *)
