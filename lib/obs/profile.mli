(** Wall-clock sampling profiler.

    [start] arms [ITIMER_REAL]; every SIGALRM captures a
    [Printexc.get_callstack] plus the innermost open {!Obs} span into a
    preallocated ring buffer (a bounded, lock-free structure the
    handler can write without touching the registry).  [folded]
    collapses the samples into flamegraph.pl / speedscope "collapsed
    stack" lines: outermost frame first, [;]-separated, then a space
    and the sample count.  When a span was open at sample time its name
    is prepended as a synthetic [\[span\] name] root frame, so profiles
    and Chrome traces cross-reference by span name.

    Surfaced as [revkb profile [-o FILE] [--hz N] SUBCMD ...] and, for
    any other revkb_obs-linked process (the bench runner), as
    [REVKB_PROFILE=FILE] via {!start_from_env}.

    Counters: [prof.samples] (captured), [prof.dropped] (ring full). *)

val start : ?hz:int -> unit -> unit
(** Arm the profiler at [hz] samples/second (default 99; range
    1..1000).  Raises [Invalid_argument] if already running or [hz] is
    out of range.  Call from the main domain: the handler runs on the
    domain the runtime delivers signals to, and sample attribution
    assumes that is the domain that called [start]. *)

val stop : unit -> unit
(** Disarm the timer and restore the default SIGALRM disposition.
    Idempotent.  Must be called before {!folded}/{!write}. *)

val sample_count : unit -> int
(** Samples currently in the ring (capacity 2^14). *)

val dropped : unit -> int
(** Samples discarded because the ring was full ([prof.dropped]). *)

(* lint: iface-ok test_obs reads the stacks the profile writer collapses *)
val folded : unit -> (string * int) list
(** Collapsed (stack, count) pairs by descending count.  Raises
    [Invalid_argument] while the profiler is running — aggregation
    must not race the handler. *)

val write : string -> (string * int) list
(** Write {!folded} to a file, one [stack count] line each —
    flamegraph.pl / speedscope input — and return the stacks. *)

val start_from_env : unit -> unit
(** If [REVKB_PROFILE=FILE] is set, start at [REVKB_PROFILE_HZ] (default
    99) and register an idempotent stop-and-write of [FILE] both at
    process exit and with {!Obs.register_flusher}, so killed runs still
    leave their profile behind. *)
