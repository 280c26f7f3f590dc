(** Unified instrumentation: counters, histograms, spans, trace events.

    One process-global registry feeds every observability surface of the
    engine — the [revkb --stats] snapshot, the [revkb trace] Chrome
    trace, and the OpenMetrics exposition.  Three instruments:

    - {b counters} record with one [Atomic] add, {e unconditionally}:
      they double as semantic bookkeeping (the [Clausal] fast-path hit
      counters are registry counters), so they count whether or not any
      output was requested.
    - {b histograms} ([hist]/[observe]/[time]) and {b spans}
      ([with_span]) are gated on {!enabled}: the disabled path is a
      single flag read — no clock, no allocation.
    - {b spans} aggregate into domain-local buffers (no lock on the
      record path) merged at {!snapshot}; with {!tracing} also on, each
      span is additionally stored as an {!event} for the Chrome
      trace_event exporter in {!Export}.

    {b Semantics contract.} No instrument may change results:
    [with_span]/[time] pass values and exceptions through untouched,
    and everything else is write-only bookkeeping.  The jobs=1 vs
    jobs=4 equality suite runs with instrumentation on in CI.

    {b Quiescence.} Record paths are domain-safe.  {!snapshot},
    {!trace_events} and {!reset} read or clear the per-domain buffers
    and should run when no pool batch is in flight (process exit, bench
    section boundaries) for exact totals. *)

(** {1 Flags} *)

val enabled : unit -> bool
(** Gated instruments record iff this is set — by {!set_enabled}
    (the [--stats] flag), by [REVKB_STATS=1] in the environment, or
    implicitly by {!set_tracing}. *)

val set_enabled : bool -> unit

val tracing : unit -> bool
(** Whether spans are additionally stored as trace events. *)

val set_tracing : bool -> unit
(** Enabling tracing also sets {!enabled}. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** The registry counter of that name, created at zero on first use.
    Idempotent: equal names share one cell. *)

val incr : counter -> unit
(** One atomic add; never gated, never allocates. *)

val add : counter -> int -> unit
val value : counter -> int

(** {1 Histograms} *)

type hist

val hist : string -> hist
(** The registry histogram of that name: atomic count/sum/min/max plus
    power-of-two buckets (bucket [b] spans [[2^(b-1), 2^b)]). *)

val observe : hist -> int -> unit
(** Record a sample iff {!enabled}; one flag read otherwise. *)

(** {1 Spans} *)

val with_span :
  ?attrs:(unit -> (string * string) list) -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a named wall-clock span.  Spans
    nest; each is aggregated per (name, domain) into the recording
    domain's buffer — no lock, no shared write — and, when {!tracing},
    stored as an {!event}.  [attrs] is a thunk so building attribute
    strings costs nothing unless the span is actually traced.
    Disabled: exactly [f ()] after one flag read. *)

val span_reader : unit -> unit -> string option
(** [span_reader ()] binds the calling domain's span stack (creating
    its buffer if needed) and returns a reader of the name of its
    innermost open span ([None] outside spans).  The reader
    takes no lock and does no domain-local lookup, so it is safe from
    a signal handler running on any domain: the sampling profiler
    ({!Profile}) binds one in [start] to attribute samples to spans. *)

val set_span_exit_hook : (unit -> unit) option -> unit
(** Install (or clear) a callback fired once per recorded span exit,
    after aggregation.  {!Gcstats} uses it to sample GC statistics at
    span boundaries.  The hook runs on the recording domain and must
    not open spans of its own. *)

(** {1 Trace events} *)

type event = {
  ev_name : string;
  ev_domain : int; (* raw Domain.id of the recording domain *)
  ev_start_us : int; (* absolute microseconds (gettimeofday epoch) *)
  ev_dur_us : int;
  ev_args : (string * string) list;
}

val trace_events : unit -> event list
(** Every stored event across all domains, by ascending start time
    (ties: longer first, so parents precede their children). *)

val trace_dropped : unit -> int
(** Events discarded after the storage cap (2^18); never silent. *)

val clear_trace : unit -> unit

(** {1 Snapshots} *)

type dist = {
  count : int;
  sum : int;
  min_v : int; (* [max_int] when count = 0 *)
  max_v : int; (* [min_int] when count = 0 *)
  buckets : (int * int) list; (* (inclusive lower bound, count), nonzero *)
}

type span_stat = {
  s_count : int;
  s_total_us : int;
  s_min_us : int;
  s_max_us : int;
  s_by_domain : (int * int) list; (* domain id -> total us, ascending *)
}

type snapshot = {
  counters : (string * int) list; (* every registered counter, by name *)
  hists : (string * dist) list;
  spans : (string * span_stat) list;
}

val snapshot : unit -> snapshot
(** Merge the registry and every domain buffer into one value.  Rows
    are sorted by name, so equal recording histories render equal
    snapshots regardless of domain scheduling. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff newer older]: entry-wise subtraction by name of the monotone
    fields (counts, sums, buckets, per-domain totals; zero entries
    dropped from pair lists).  Window extrema are not recoverable from
    cumulative snapshots, so min/max pass through from [newer]. *)

(** {1 Fatal-signal flush} *)

val register_flusher : (unit -> unit) -> unit
(** Register a telemetry writer to also run on SIGINT/SIGTERM.  The
    first registration installs handlers that run every flusher (in
    registration order, failures skipped) and then re-raise the signal
    with default disposition, so a killed process still dies by that
    signal but its trace/metrics/profile artifacts survive.  Writers
    normally also run from [at_exit]; the two paths never both run. *)

(* lint: iface-ok test_obs runs the signal path directly *)
val run_flushers : unit -> unit
(** Run every registered flusher now (the signal path, callable
    directly for tests). *)

val set_signal_deferral : (int -> bool) option -> unit
(** Install (or clear) a predicate consulted by the fatal-signal
    handler {e before} it flushes and re-raises.  Returning [true]
    defers: the handler does nothing further, and the caller — a
    serving loop that wants to drain in-flight requests first — must
    eventually call {!flush_and_reraise} with the same signal itself.
    Returning [false] (or raising) keeps the immediate
    flush-and-die path. *)

val flush_and_reraise : int -> unit
(** Run every flusher, restore the signal's default disposition, and
    re-raise it against the current process — the tail of the fatal
    path, exposed so a deferring server can die by the original signal
    once its drain completes. *)
