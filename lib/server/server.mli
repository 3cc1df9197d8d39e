(** Arcade-as-a-service: a persistent analysis daemon.

    A hand-rolled HTTP/1.1 + JSON server (over [Unix], no new
    dependencies — {!Http} / {!Json} play the role [Xml_kit] plays for
    XML) that accepts Arcade XML models with CSL/CSRL queries and
    answers them from long-lived {!Ctmc.Analysis} sessions:

    - {b Model-hash session cache}: sessions are keyed by an FNV-1a
      content hash of the model source ({!Ctmc.Analysis.fnv1a64}), so
      repeated requests for the same model share its transposed rates,
      Fox–Glynn weights, quotients and steady-state vector instead of
      rebuilding the state space per request. A
      capacity-bounded LRU keeps the portfolio's working set resident.
    - {b Chains on demand}: a session holds a
      {!Core.Measures.Session} over the parsed model, which routes each
      query: the steady-state operators over group-invariant labels are
      answered on the symmetry-reduced build, built when the first of
      them arrives, and every other query on the full build, built
      likewise.
    - {b Admission control}: every model is linted ({!Lint}) and every
      query parsed ({!Csl.Parser}) {e before} any state-space work;
      malformed requests get 4xx answers with positioned diagnostics
      instead of mid-solve exceptions or dropped connections. Bytes a
      live session was built from passed lint already and are not
      linted again.
    - {b Answer memo}: a session answers a query text it has answered
      before from its memo (see {!memo_max_entries}), without a sweep.
    - {b Within-request batching}: the time-bounded until queries of one
      request with identical operands ride one
      {!Ctmc.Reachability.bounded_until_curve} sweep, and its
      instantaneous + cumulative reward queries on one reward structure
      ride one blocked {!Ctmc.Rewards.both_curves} pass.
    - {b Model fan-out}: the scheduler drains every queued request at
      once and groups them by model source; a group's requests run one
      after another (the later ones answered from the memo the first
      filled), and distinct models are dispatched across a fixed
      {!Numeric.Parallel.Pool} of domains.

    {2 Wire protocol}

    [POST /analyze] with body
    [{"model": "<arcade xml>", "queries": ["S=? [...]", ...]}]
    (other fields are ignored) answers
    [{"model_hash": "…", "session": "hit"|"miss",
      "states": n, "results": [{"query": …, "value": v}
      | {"query": …, "satisfied": b} | {"query": …, "error": m}, …]}].

    where [n] is the full chain's state count, whichever chain
    answered. [GET /health], [GET /stats], [GET /metrics] (the {!Obs.Metrics}
    snapshot) and [POST /shutdown] complete the surface. See DESIGN §13
    for the full protocol. *)

module Json = Json
(** The wire codec: the leaf [json] library, re-exported for clients that
    name it through the server. *)

module Http = Http

type config = {
  host : string;  (** dotted-quad bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port (see {!port}) *)
  domains : int;  (** worker-pool size for distinct-model fan-out *)
  max_sessions : int;  (** LRU capacity of the session cache *)
}

val memo_max_entries : int
(** The most answers one session memoizes. A session keeps every
    successful answer, keyed by the query's raw text, and answers a later
    request's identical query text from it; past this bound, or past
    {!memo_max_key_bytes}, an answer is computed but not stored. Errors
    are never stored. *)

val memo_max_key_bytes : int
(** The most query-text bytes one session's memo holds as keys. *)

val default_config : unit -> config
(** Defaults, overridable through the environment ([SERVER_HOST],
    [SERVER_PORT], [SERVER_DOMAINS], [SERVER_MAX_SESSIONS]). Numeric
    knobs go through {!Numeric.Parallel.getenv_positive_int}: malformed
    values warn on stderr and fall back, they never silently change
    behavior. *)

type t
(** A running server (accept loop, scheduler and worker pool). *)

val start : ?config:config -> unit -> t
(** Bind, spawn the accept and scheduler threads and return. Enables
    {!Obs.Metrics} recording (a server's stats endpoint is part of its
    contract). [/stats] reads the process-wide registry, so its counts
    run from process start: one daemon per process, or
    {!Obs.Metrics.reset} before {!start}, gives one daemon's counts.
    Raises [Unix.Unix_error] if the address cannot be bound. *)

val port : t -> int
(** The actually bound port — useful with [config.port = 0]. *)

val stop : t -> unit
(** Stop accepting, drain queued requests (they are answered), shut the
    worker pool down and join the server threads. Idempotent. *)

val wait : t -> unit
(** Block until the server stops (via {!stop} or [POST /shutdown]). *)
