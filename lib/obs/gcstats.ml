(* GC and allocation telemetry.

   [sample] reads [Gc.quick_stat] and publishes the delta since the
   previous sample into the registry:

   - gc.minor_collections / gc.major_collections / gc.compactions —
     counters (monotone deltas, so registry totals equal the runtime's
     cumulative figures from the first sample on);
   - gc.allocated_words — counter of words allocated (minor + major
     - promoted, the standard double-count correction);
   - gc.heap_words — histogram of major-heap size observations (a
     gauge rendered as a distribution: min/max/last bucket tell the
     story across a run);
   - gc.alloc_rate — histogram of allocation rate samples in
     words/second over each sampling window.

   Sampling points: explicitly at snapshot/flush time by the CLI and
   bench writers, and — once [enable] has run — at every recorded span
   exit, rate-limited to one sample per [tick_ms] (10) milliseconds so
   hot spans (pool tasks) cost one clock read, not a quick_stat each.

   The state behind delta computation is guarded by a try-lock: a
   contended sample is simply skipped (another domain just sampled;
   the telemetry loses nothing of note). *)

let minor_c = Obs.counter "gc.minor_collections"
let major_c = Obs.counter "gc.major_collections"
let compact_c = Obs.counter "gc.compactions"
let alloc_c = Obs.counter "gc.allocated_words"
let heap_h = Obs.hist "gc.heap_words"
let rate_h = Obs.hist "gc.alloc_rate"

type last = {
  mutable l_minor : int;
  mutable l_major : int;
  mutable l_compact : int;
  mutable l_words : float;
  mutable l_time : float;
  mutable l_primed : bool;
}

(* lint: domain-safe all fields are read and written only while
   [sampling] is held (try-lock below) *)
let last =
  {
    l_minor = 0;
    l_major = 0;
    l_compact = 0;
    l_words = 0.;
    l_time = 0.;
    l_primed = false;
  }

let sampling = Atomic.make false

let allocated_words (q : Gc.stat) =
  q.Gc.minor_words +. q.Gc.major_words -. q.Gc.promoted_words

let sample () =
  if Atomic.compare_and_set sampling false true then begin
    let q = Gc.quick_stat () in
    let now = Unix.gettimeofday () in
    let words = allocated_words q in
    if last.l_primed then begin
      Obs.add minor_c (q.Gc.minor_collections - last.l_minor);
      Obs.add major_c (q.Gc.major_collections - last.l_major);
      Obs.add compact_c (q.Gc.compactions - last.l_compact);
      Obs.add alloc_c (int_of_float (words -. last.l_words));
      let dt = now -. last.l_time in
      if dt > 0. then
        Obs.observe rate_h (int_of_float ((words -. last.l_words) /. dt))
    end;
    Obs.observe heap_h q.Gc.heap_words;
    last.l_minor <- q.Gc.minor_collections;
    last.l_major <- q.Gc.major_collections;
    last.l_compact <- q.Gc.compactions;
    last.l_words <- words;
    last.l_time <- now;
    last.l_primed <- true;
    Atomic.set sampling false
  end

(* -- span-boundary tick ------------------------------------------------------ *)

let tick_ms = 10

let last_tick_us = Atomic.make 0

let boundary () =
  let now = int_of_float (Unix.gettimeofday () *. 1e6) in
  let prev = Atomic.get last_tick_us in
  if now - prev >= tick_ms * 1000 && Atomic.compare_and_set last_tick_us prev now
  then sample ()

let enable () =
  sample ();
  Obs.set_span_exit_hook (Some boundary)

