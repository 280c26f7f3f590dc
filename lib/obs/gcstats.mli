(** GC and allocation telemetry on the {!Obs} registry.

    {!sample} publishes [Gc.quick_stat] deltas as [gc.*] metrics:
    [gc.minor_collections], [gc.major_collections], [gc.compactions]
    and [gc.allocated_words] counters (monotone deltas), plus
    [gc.heap_words] (major-heap size observations) and [gc.alloc_rate]
    (words/second per sampling window) histograms.  They merge into
    every snapshot and exporter for free.

    Sampling points: the CLI/bench writers call {!sample} right before
    their final snapshot, and after {!enable} every recorded span exit
    samples too — rate-limited to one [quick_stat] per 10
    milliseconds. *)

val sample : unit -> unit
(** Read [Gc.quick_stat] and publish the delta since the previous
    sample.  Thread-safe; a contended call is skipped. *)

val enable : unit -> unit
(** Take a priming sample and install the rate-limited span-boundary
    sampler (via {!Obs.set_span_exit_hook}). *)
