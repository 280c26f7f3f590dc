(** Exporters for {!Obs} snapshots and trace buffers.

    Also home of the shared JSON string/float primitives, so every
    hand-rolled emitter in the repo escapes and validates identically
    (the repo has no JSON dependency by policy). *)

(** {1 JSON primitives} *)

val json_string : string -> string
(** A JSON string literal: double quotes around the contents with
    quote, backslash and every control character escaped (standard
    short escapes, [\uXXXX] otherwise). *)

val json_float : float -> string
(** Render a finite float; raises [Invalid_argument] on NaN or
    infinities, which JSON cannot represent — an emitter must fail
    loudly rather than write an unparseable artifact. *)

(* lint: iface-ok test_obs checks the non-finite refusal openmetrics relies on *)
val metric_float : float -> string
(** Render a finite float for the OpenMetrics text format; raises
    [Invalid_argument] on NaN or infinities — some scrapers accept
    those tokens and others reject them, so the exporter refuses to
    emit them at all. *)

(** {1 Snapshot renderers} *)

val table : Obs.snapshot -> string
(** Human-readable sections (counters / histograms / spans); zero rows
    are elided, span rows include per-domain totals when more than one
    domain recorded. *)

val openmetrics : Obs.snapshot -> string
(** The OpenMetrics / Prometheus text exposition of a snapshot.
    Counters become [revkb_<name>_total] counter families; histograms
    become histogram families with cumulative power-of-two buckets
    (inclusive [le] labels: bucket 0 is [le="1"], a bucket with lower
    bound [lo >= 2] is [le="2*lo-1"], and the mandatory [le="+Inf"]
    row equals the count — present even for empty histograms); spans
    become [_seconds] summaries ([_count]/[_sum], sum in seconds).
    Metric names are sanitized ([.] and any other character outside
    [[a-zA-Z0-9_:]] become [_]) and prefixed [revkb_].  The output ends
    with the spec-mandated [# EOF] line. *)

(** {1 Chrome trace} *)

val chrome_trace : Obs.event list -> string
(** The trace_event JSON array (complete "X" events, tid = domain,
    timestamps rebased to the earliest event) that
    [about://tracing] / Perfetto open directly. *)
