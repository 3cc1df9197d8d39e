(** Observability: span tracing, a metrics registry, solver telemetry and
    a flight recorder.

    The numeric pipelines behind the paper's artifacts — uniformization
    sweeps, Fox–Glynn windows, Gauss–Seidel and power-iteration solves —
    are instrumented through this layer. It has three sinks:

    - {!Trace}: nestable, monotonic-clock timed spans with key/value
      attributes and optional W3C trace-context linkage, stored in one
      ring per domain (safe under {!Numeric.Parallel} fan-out and under
      the server's systhreads) and flushed as Chrome trace-event JSON,
      loadable in Perfetto / [chrome://tracing].
    - {!Metrics}: named counters, gauges and fixed-bucket histograms with
      O(1) lock-free updates, plus a bounded ring of recent solver-
      convergence events; dumped with {!Metrics.snapshot} / {!Metrics.pp}
      / {!Metrics.to_json} / {!Metrics.to_prometheus}.
    - {!Flight}: the newest 512 events of those rings, always kept,
      dumped as a Chrome trace on failure (5xx, solver non-convergence,
      SIGUSR1) for after-the-fact diagnosis in long-running daemons.

    {!Trace} and {!Metrics} are {e disabled by default} and effectively
    free when off: every record site reduces to a single flag check and
    performs no allocation. Enable them programmatically
    ({!Trace.set_output}, {!Metrics.set_enabled}, {!Flight.set_enabled})
    or through the environment via {!init} ([OBS_TRACE=<file>],
    [OBS_METRICS=1|<file>], [OBS_TRACE_BUFFER=<n>], [OBS_FLIGHT=<file>]). *)

type attr =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
      (** Attribute values attached to spans; rendered into the Chrome
          trace event's [args] object. *)

val monotonic_ns : unit -> int64
(** Raw monotonic clock (CLOCK_MONOTONIC), nanoseconds from an arbitrary
    origin. Exposed for callers that time things themselves. *)

val write_file_atomic : string -> string -> unit
(** [write_file_atomic path contents] writes [contents] to a uniquely
    named temp file next to [path] (pid + sequence number, so concurrent
    writers — domains or processes — cannot collide) and renames it over
    [path]: readers never observe a truncated file. On failure the temp
    file is unlinked and the exception re-raised. Used for every JSON
    artifact the tree emits (traces, metrics, bench timings, load
    reports). *)

val init : unit -> unit
(** Read the [OBS_*] environment and arm the at-exit hooks. Idempotent.

    - [OBS_TRACE=<file>]: enable tracing; the trace is flushed to [<file>]
      at process exit (and on every explicit {!Trace.flush}).
    - [OBS_TRACE_BUFFER=<n>]: keep at most [n] unflushed trace events
      per domain (drop-oldest); ["unbounded"] or ["0"] keeps them all.
    - [OBS_METRICS=1] (or [true]/[yes]): enable metrics; the snapshot is
      pretty-printed to stderr at exit.
    - [OBS_METRICS=<file>]: enable metrics; the snapshot is written to
      [<file>] as JSON at exit.
    - [OBS_FLIGHT=<file>] (or [1]): enable the flight recorder, dumping
      to [<file>] (default [arcade-flight.json]).

    Binaries call this once at startup; libraries never do. *)

(** {1 Metrics registry} *)

module Metrics : sig
  val enabled : unit -> bool

  val set_enabled : bool -> unit
  (** Flip the global recording flag. Registration ({!counter} etc.) is
      always allowed; only the update paths are gated. *)

  (** {2 Instruments}

      Instruments are registered once by name (module-initialization time
      is fine: registration is cheap and independent of the enabled flag)
      and updated through their handle. Registration is idempotent — the
      same name yields the same instrument — but re-registering a name as
      a different kind raises [Invalid_argument]. Updates are atomic, so
      instruments shared across domains merge exactly. *)

  type counter

  val counter : string -> counter

  val incr : counter -> unit

  val add : counter -> int -> unit

  val counter_value : counter -> int
  (** Current value (reads ignore the enabled flag). *)

  type gauge

  val gauge : string -> gauge

  val set_gauge : gauge -> float -> unit

  val gauge_value : gauge -> float
  (** Current value (reads ignore the enabled flag). *)

  type histogram

  val histogram : ?buckets:float array -> string -> histogram
  (** [buckets] are the upper bounds of the fixed buckets, strictly
      increasing; an implicit overflow bucket catches the rest. The
      default is a log-spaced decade grid from [1e-16] to [1e6] suited to
      residuals, window widths and iteration counts alike. [buckets] is
      ignored when the name is already registered. *)

  val latency_ms_buckets : float array
  (** A latency-shaped grid (0.25 ms to ~8 s, powers of two) for request
      and query timings in milliseconds. *)

  val observe : histogram -> float -> unit

  (** {2 Solver-convergence telemetry}

      Iterative solvers report each solve here ({!record_solve}); the
      registry keeps per-solver aggregate instruments
      ([solver.<name>.solves], [.iterations], [.last_residual],
      [.residual] histogram) and a bounded ring of the most recent
      individual events, so a snapshot shows the final residual and
      iteration count of every recent steady-state solve. A solve with
      [converged:false] also triggers a {!Flight} dump when the flight
      recorder is enabled. *)

  type solve = {
    solver : string;  (** e.g. ["gauss_seidel"], ["power_iteration"] *)
    size : int;  (** number of unknowns *)
    iterations : int;
    residual : float;
    converged : bool;
  }

  val record_solve :
    solver:string ->
    size:int ->
    iterations:int ->
    residual:float ->
    converged:bool ->
    unit

  (** {2 Snapshots} *)

  type snapshot = {
    counters : (string * int) list;  (** sorted by name *)
    gauges : (string * float) list;  (** sorted by name *)
    histograms : (string * histogram_view) list;  (** sorted by name *)
    solves : solve list;  (** chronological, bounded ring *)
  }

  and histogram_view = {
    bounds : float array;
    counts : int array;  (** length [Array.length bounds + 1] *)
    total : int;
    sum : float;
  }

  val snapshot : unit -> snapshot

  val pp : Format.formatter -> snapshot -> unit

  val to_json : snapshot -> Json.t
  (** The snapshot as one JSON object with [counters], [gauges],
      [histograms] and [solves] members; non-finite gauges, sums and
      residuals print as [null]. *)

  val to_prometheus : snapshot -> string
  (** The snapshot in Prometheus text exposition format 0.0.4. Every
      family is prefixed [arcade_] and sanitized ([[^a-zA-Z0-9_:]] maps
      to [_]); counters gain the [_total] suffix; histograms emit
      cumulative [_bucket{le="..."}] lines ending in [le="+Inf"], plus
      [_sum] and [_count]. When sanitization collides two registry names
      the first (alphabetical) wins and the later family is skipped, so
      no family is emitted twice. The solve ring is JSON-only. *)

  val reset : unit -> unit
  (** Zero every instrument and clear the solve ring, keeping
      registrations. Meant for tests and for delta measurements. *)
end

(** {1 Span tracing} *)

module Trace : sig
  val enabled : unit -> bool

  val set_output : string option -> unit
  (** [set_output (Some path)] enables tracing and arms an at-exit flush
      to [path], discarding any events buffered for a previous output so
      the new recording starts clean; [set_output None] disables
      tracing. *)

  (** {2 W3C trace-context}

      Requests carry a trace identity across process boundaries via the
      W3C [traceparent] header
      ([00-<32 hex trace id>-<16 hex span id>-<2 hex flags>]). Within a
      process the current context is scoped per (domain, systhread) and
      propagated by {!with_context} / {!with_span};
      {!Numeric.Parallel.Pool} re-installs the submitter's context in its
      workers, so spans recorded on a pool domain still join the
      submitting request's trace. *)

  type context = { trace_id : string; span_id : string }

  val new_context : unit -> context
  (** Fresh random trace and span ids (lowercase hex, never all-zero). *)

  val child_context : context -> context
  (** Same trace id, fresh span id. *)

  val parse_traceparent : string -> context option
  (** Parse a [traceparent] header value. Returns [None] on malformed
      input: wrong field lengths, non-lowercase hex, all-zero trace or
      span id, version [ff], or trailing fields under version [00]
      (later versions with trailing fields are accepted). *)

  val format_traceparent : context -> string
  (** [00-<trace_id>-<span_id>-01]. *)

  val current_context : unit -> context option
  (** The context installed for this (domain, systhread), if any. [None]
      whenever tracing and the flight recorder are both off. *)

  val with_context : context option -> (unit -> 'a) -> 'a
  (** Install (or clear, with [None]) the current context around a
      callback, restoring the previous one afterwards. *)

  (** {2 Spans} *)

  type span
  (** An open span. When tracing is disabled this is a weightless dummy:
      {!with_span} still runs its body, and attribute updates no-op. *)

  val recording : span -> bool
  (** [true] when the span is live — guard attribute construction with
      this to keep disabled call sites allocation-free. *)

  val with_span :
    ?ctx:context -> ?attrs:(string * attr) list -> string -> (span -> 'a) -> 'a
  (** [with_span name f] times [f] under a span named [name]. Spans nest
      with the call stack; each domain buffers its own spans, so spans
      opened inside {!Numeric.Parallel} workers land on that worker's
      Chrome-trace track. The span is closed (and recorded) even when [f]
      raises. When tracing is disabled, [f] runs with a dummy span and
      nothing is recorded or allocated.

      Trace linkage: with [?ctx] the span takes that exact identity (the
      caller minted the ids, e.g. a server echoing them in a response
      header) and the ambient context becomes its parent; without [?ctx]
      the span becomes a child of the ambient context when one is
      installed, and carries no trace ids otherwise. The span's context
      is the ambient context for the duration of [f]. *)

  val add_attr : span -> string -> attr -> unit
  (** Attach/overwrite an attribute on an open span; no-op on a dummy. *)

  val instant : ?attrs:(string * attr) list -> string -> unit
  (** A zero-duration instant event (Chrome phase ["i"]), tagged with the
      ambient context when one is installed. *)

  (** {2 Self-time ledger} *)

  type self_time = {
    name : string;
    self_ns : int64;  (** summed durations minus those of direct children *)
    total_ns : int64;  (** summed durations *)
    count : int;  (** spans of this name *)
  }

  val self_times : unit -> self_time list
  (** The unflushed complete spans folded per name, largest self time
      first (ties by name). Spans nest per track (one per domain and
      systhread): a span's children are the spans of its track that run
      inside it, so work a pool worker does for a span counts as the
      worker's span's self time, not the submitter's. A name nested in
      itself counts both durations in its total. *)

  val pp_self_times : Format.formatter -> self_time list -> unit
  (** One line per name: self seconds, share of all self time, total
      seconds and count. *)

  (** {2 Buffers and flushing} *)

  val set_buffer_capacity : int option -> unit
  (** Bound the unflushed events each domain's ring keeps to the given
      number; on overflow the oldest unflushed event is dropped from the
      trace and the [trace.dropped_events] counter bumped (the one count
      of dropped events, recorded while metrics are enabled). [None] (the
      default) keeps every unflushed event — right for short-lived
      binaries, wrong for daemons. *)

  val buffer_capacity : unit -> int option

  val clear : unit -> unit
  (** Discard all unflushed events from the trace; the flight recorder
      still shows them. Meant for tests. *)

  val set_incremental : bool -> unit
  (** In incremental mode each {!flush} appends the unflushed events to
      the output file and marks them flushed (the file is left
      without its closing bracket — the Chrome trace array format
      tolerates this and Perfetto loads it). Flushing stays O(new
      events), which is what a daemon's periodic flush needs. The
      default mode rewrites the full buffered history each time. *)

  val flush : unit -> unit
  (** Write unflushed events to the {!set_output} path as Chrome
      trace-event JSON. In the default mode the file is rewritten
      atomically (temp file + rename) with every event since
      {!set_output}; in incremental mode the unflushed events are
      appended. No-op when no output path is set. A write that fails is
      reported on stderr, never raised. *)
end

(** {1 Flight recorder} *)

module Flight : sig
  val enabled : unit -> bool

  val set_enabled : bool -> unit
  (** When enabled, every closed span and instant is stored in its
      domain's ring even while file tracing is off; the ring keeps at
      least the newest 512 events. Recording is one lock-protected array
      store — cheap enough to leave on in a serving daemon. *)

  val set_path : string -> unit
  (** Where {!dump} writes; default [arcade-flight.json]. *)

  val path : unit -> string

  val dump : ?reason:string -> unit -> unit
  (** Atomically write the newest 512 events of each domain's ring,
      flushed or not (all domains, sorted, plus a
      [flight.dump] marker carrying [reason]) as a Chrome trace to
      {!path}. Bumps the [flight.dumps] counter, the one count of dumps
      (recorded while metrics are enabled, as in the daemon). A dump that
      cannot be written is reported on stderr, never raised, and not
      counted. *)

  val request_dump : unit -> unit
  (** Ask for a dump from an async-signal context: only sets a flag. *)

  val poll : unit -> unit
  (** Perform a dump if one was {!request_dump}ed. Called periodically
      by the server's housekeeping thread. *)

  val arm_sigusr1 : unit -> unit
  (** Install a SIGUSR1 handler that calls {!request_dump}. *)

  val clear : unit -> unit
  (** Empty the rings, unflushed trace events included. Meant for
      tests. *)
end
