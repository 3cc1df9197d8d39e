(** Parallel map over OCaml 5 domains, on one mechanism: a persistent
    {!Pool} of worker domains.

    Built for fan-outs whose items are independent pieces of work (one
    repair-configuration curve, one table row, one model), with results
    in input order. [map] hands its items to one process-wide pool;
    the daemon runs its own sized pool.

    Results are deterministic: [map f xs] computes exactly [List.map f xs]
    regardless of the domain count — only wall-clock time changes.

    {b The items of one map touch disjoint chains:} {!Ctmc.Analysis}
    sessions (and anything else mutably cached) must not be used by two
    items that run concurrently. A session may move between domains from
    one map to the next (each map completes before the next starts), so
    caches shared across maps are fine behind a lock; see
    [Watertreatment.Experiments] for the pattern.

    Nested maps from inside a worker run sequentially, so composing
    parallel drivers cannot multiply the domain count or deadlock on a
    pool's own queue. *)

val getenv_positive_int : string -> int option
(** [getenv_positive_int name] parses the environment variable [name] as a
    positive integer. Unset or empty yields [None]; a malformed or
    non-positive value yields [None] {e loudly} — one warning per variable
    on stderr — instead of silently changing behavior (a typo like
    [PAR_DOMAINS=O2] used to alter parallelism with no signal). All
    numeric env knobs ([PAR_DOMAINS], the server's [SERVER_*] family)
    share this discipline. *)

val default_domains : unit -> int
(** The width of [map]'s pool and the default size of {!Pool.create}: the
    [PAR_DOMAINS] environment variable when set to a positive integer
    ({!getenv_positive_int}), otherwise
    [Domain.recommended_domain_count ()]. [PAR_DOMAINS=1] forces fully
    sequential evaluation. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] is [List.map f xs] with the applications distributed over
    the domains of one process-wide {!Pool}, spawned by the first call
    that fans out with {!default_domains} members and kept for the life
    of the process. It runs as plain [List.map] on the calling domain,
    spawning nothing, when {!default_domains} is [1], when [xs] has at
    most one element, and when called from inside a worker. If any
    application raises, every item still runs and one of the raised
    exceptions is re-raised. *)

(** A persistent fixed-size domain pool.

    A [Pool.t] keeps its domains alive behind a task queue; every
    {!Pool.map} hands its items to the pool and blocks until all
    complete. The same rule as {!map} applies: the items of one call
    must not share mutable caches. Calls from inside any pool's worker
    run sequentially, so nesting never deadlocks on the pool's own
    queue. *)
module Pool : sig
  type t

  val create : ?domains:int -> unit -> t
  (** Spawn the worker domains ([domains] defaults to
      {!default_domains}; values [< 1] are clamped to [1]). *)

  val size : t -> int

  val map : t -> ('a -> 'b) -> 'a list -> 'b list
  (** [map pool f xs] computes [List.map f xs] with the applications
      distributed over the pool's domains, preserving order. If any
      application raises, all items still run to completion and one of
      the raised exceptions is re-raised. Raises [Invalid_argument] on a
      shut-down pool. *)

  val shutdown : t -> unit
  (** Finish queued work, stop and join every worker. Idempotent;
      subsequent {!map} calls raise. *)
end
