(* Metrics and tracing for the revision engine.  Three instruments:

   - counters: named process-global Atomic cells.  Recording is ONE
     atomic add, unconditional — they double as semantic bookkeeping
     (the Clausal fast-path hit counters live here), so they must count
     whether or not observability output was requested.
   - histograms: Atomic count/sum/min/max plus power-of-two buckets.
     Recording is gated on [enabled] so the disabled path never reads a
     clock or touches the cells.
   - spans: wall-clock intervals that nest, aggregated per domain in
     domain-local buffers (no lock on the record path) and merged at
     [snapshot].  With [tracing] also on, every span additionally
     becomes an event for the Chrome trace_event exporter.

   Instrumentation may never change semantics: every entry point either
   performs pure bookkeeping or wraps [f] so its value and exceptions
   pass through untouched.  The disabled span/histogram path is a
   single flag read — no allocation, no clock (test_obs holds this with
   a Gc guard). *)

(* -- flags ----------------------------------------------------------------- *)

let enabled_flag = Atomic.make false
let tracing_flag = Atomic.make false

let truthy s =
  match String.lowercase_ascii (String.trim s) with
  | "1" | "true" | "yes" | "on" -> true
  | _ -> false

let () =
  match Sys.getenv_opt "REVKB_STATS" with
  | Some s when truthy s -> Atomic.set enabled_flag true
  | _ -> ()

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let tracing () = Atomic.get tracing_flag

let set_tracing b =
  if b then Atomic.set enabled_flag true;
  Atomic.set tracing_flag b

(* Microsecond wall clock: spans target the Chrome trace_event format,
   whose timestamps are microseconds, and gettimeofday resolves no
   finer anyway. *)
let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* -- registry --------------------------------------------------------------- *)

(* Creation is rare (module init, one DLS init per domain) and goes
   through this mutex; the record paths never take it. *)
let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

(* -- counters --------------------------------------------------------------- *)

type counter = { cell : int Atomic.t }

(* lint: domain-safe registry writes go through [locked]
   (registry_mutex); bumps touch only the per-counter Atomic cell *)
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { cell = Atomic.make 0 } in
          Hashtbl.add counters name c;
          c)

let incr c = ignore (Atomic.fetch_and_add c.cell 1)
let add c n = ignore (Atomic.fetch_and_add c.cell n)
let value c = Atomic.get c.cell

(* -- histograms ------------------------------------------------------------- *)

(* Bucket [b] counts values in [2^(b-1), 2^b); bucket 0 counts <= 0 and
   1.  63 buckets cover every non-negative int. *)
let n_buckets = 63

let bucket_of v =
  if v <= 1 then 0
  else begin
    let rec bits v i = if v = 0 then i else bits (v lsr 1) (i + 1) in
    min (n_buckets - 1) (bits v 0)
  end

(* lint: shift-ok b < n_buckets = 63, so b - 1 <= 61 = Sys.int_size - 2 *)
let bucket_lo b = if b = 0 then 0 else 1 lsl (b - 1)

type hist = {
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_min : int Atomic.t; (* max_int when empty *)
  h_max : int Atomic.t; (* min_int when empty *)
  h_buckets : int Atomic.t array;
}

(* lint: domain-safe registry writes go through [locked]
   (registry_mutex); records touch only the per-hist Atomic cells *)
let hists : (string, hist) Hashtbl.t = Hashtbl.create 32

let hist name =
  locked (fun () ->
      match Hashtbl.find_opt hists name with
      | Some h -> h
      | None ->
          let h =
            {
              h_count = Atomic.make 0;
              h_sum = Atomic.make 0;
              h_min = Atomic.make max_int;
              h_max = Atomic.make min_int;
              h_buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
            }
          in
          Hashtbl.add hists name h;
          h)

let rec atomic_min cell v =
  let cur = Atomic.get cell in
  if v < cur && not (Atomic.compare_and_set cell cur v) then atomic_min cell v

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

let observe_always h v =
  ignore (Atomic.fetch_and_add h.h_count 1);
  ignore (Atomic.fetch_and_add h.h_sum v);
  atomic_min h.h_min v;
  atomic_max h.h_max v;
  ignore (Atomic.fetch_and_add h.h_buckets.(bucket_of v) 1)

let observe h v = if Atomic.get enabled_flag then observe_always h v

(* -- spans ------------------------------------------------------------------ *)

type event = {
  ev_name : string;
  ev_domain : int;
  ev_start_us : int;
  ev_dur_us : int;
  ev_args : (string * string) list;
}

(* Mutable per-name aggregate inside one domain's buffer: single-writer,
   so plain mutation is race-free. *)
type sagg = {
  mutable a_count : int;
  mutable a_total : int;
  mutable a_min : int;
  mutable a_max : int;
}

type domain_buf = {
  dom_id : int;
  aggs : (string, sagg) Hashtbl.t;
  mutable events : event list; (* newest first *)
  mutable depth : int;
  (* Innermost-first stack of the names of the currently open spans on
     this domain.  Single-writer like the rest of the buffer.  The
     sampling profiler reads the head through a {!span_reader} bound
     to the profiled domain; its SIGALRM handler may run on another
     domain, which then sees an immutable list, never a torn one. *)
  mutable stack : string list;
}

(* Every buffer ever created, so [snapshot]/[trace_events] can merge
   them.  Buffers are single-writer (their domain); merging reads them
   at quiescence — after batches complete, workers are parked — which
   is when snapshots are taken. *)
(* lint: domain-safe appends go through [locked] (registry_mutex);
   merges read at quiescence as described above *)
let all_bufs : domain_buf list ref = ref []

(* Global cap on stored trace events: a pathological run must exhaust
   neither memory nor patience.  Drops are counted, never silent. *)
let event_cap = 1 lsl 18
let event_count = Atomic.make 0
let events_dropped = Atomic.make 0

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          dom_id = (Domain.self () :> int);
          aggs = Hashtbl.create 16;
          events = [];
          depth = 0;
          stack = [];
        }
      in
      locked (fun () -> all_bufs := b :: !all_bufs);
      b)

let no_attrs () = []

(* Optional callback fired once per closed span (after aggregation):
   [Gcstats] hangs its rate-limited quick_stat sampler here so GC
   telemetry tracks span boundaries without [Obs] depending on it.  The
   hook must not open spans of its own. *)
let span_exit_hook : (unit -> unit) option Atomic.t = Atomic.make None
let set_span_exit_hook h = Atomic.set span_exit_hook h

let record_span b name t0 dur attrs =
  (match Hashtbl.find_opt b.aggs name with
  | Some a ->
      a.a_count <- a.a_count + 1;
      a.a_total <- a.a_total + dur;
      if dur < a.a_min then a.a_min <- dur;
      if dur > a.a_max then a.a_max <- dur
  | None ->
      Hashtbl.add b.aggs name
        { a_count = 1; a_total = dur; a_min = dur; a_max = dur });
  if Atomic.get tracing_flag then begin
    if Atomic.fetch_and_add event_count 1 < event_cap then
      b.events <-
        {
          ev_name = name;
          ev_domain = b.dom_id;
          ev_start_us = t0;
          ev_dur_us = dur;
          ev_args = attrs ();
        }
        :: b.events
    else ignore (Atomic.fetch_and_add events_dropped 1)
  end;
  match Atomic.get span_exit_hook with None -> () | Some hook -> hook ()

let with_span ?(attrs = no_attrs) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let b = Domain.DLS.get buf_key in
    let t0 = now_us () in
    b.depth <- b.depth + 1;
    b.stack <- name :: b.stack;
    let finish () =
      b.depth <- b.depth - 1;
      (match b.stack with _ :: tl -> b.stack <- tl | [] -> ());
      record_span b name t0 (now_us () - t0) attrs
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Deliberately not gated on [enabled]: the stack is empty when
   recording is off, and the profiler's signal handler must be able to
   read it without a flag race. *)
let top_of b = match b.stack with [] -> None | s :: _ -> Some s

(* The DLS lookup happens here, in plain code; the returned reader only
   dereferences the bound buffer.  That is what makes it usable from a
   signal handler, which OCaml 5 may run on any domain: a DLS read there
   would consult (or create, under the registry mutex) the buffer of
   whichever domain happened to poll first. *)
let span_reader () =
  let b = Domain.DLS.get buf_key in
  fun () -> top_of b

let trace_events () =
  let evs =
    locked (fun () -> List.concat_map (fun b -> b.events) !all_bufs)
  in
  List.sort
    (fun a b ->
      match compare a.ev_start_us b.ev_start_us with
      | 0 -> compare b.ev_dur_us a.ev_dur_us (* parents before children *)
      | c -> c)
    evs

let trace_dropped () = Atomic.get events_dropped

let clear_trace () =
  locked (fun () -> List.iter (fun b -> b.events <- []) !all_bufs);
  Atomic.set event_count 0;
  Atomic.set events_dropped 0

(* -- snapshots -------------------------------------------------------------- *)

type dist = {
  count : int;
  sum : int;
  min_v : int; (* max_int when count = 0 *)
  max_v : int; (* min_int when count = 0 *)
  buckets : (int * int) list; (* (inclusive lower bound, count), nonzero *)
}

type span_stat = {
  s_count : int;
  s_total_us : int;
  s_min_us : int;
  s_max_us : int;
  s_by_domain : (int * int) list; (* domain id -> total us, ascending ids *)
}

type snapshot = {
  counters : (string * int) list;
  hists : (string * dist) list;
  spans : (string * span_stat) list;
}

let sorted_bindings tbl value_of =
  Hashtbl.fold (fun name v acc -> (name, value_of v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dist_of_hist h =
  {
    count = Atomic.get h.h_count;
    sum = Atomic.get h.h_sum;
    min_v = Atomic.get h.h_min;
    max_v = Atomic.get h.h_max;
    buckets =
      Array.to_list h.h_buckets
      |> List.mapi (fun b cell -> (bucket_lo b, Atomic.get cell))
      |> List.filter (fun (_, c) -> c > 0);
  }

let snapshot () =
  locked (fun () ->
      let merged : (string, span_stat) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun b ->
          Hashtbl.iter
            (fun name a ->
              let cur =
                Option.value
                  (Hashtbl.find_opt merged name)
                  ~default:
                    {
                      s_count = 0;
                      s_total_us = 0;
                      s_min_us = max_int;
                      s_max_us = min_int;
                      s_by_domain = [];
                    }
              in
              Hashtbl.replace merged name
                {
                  s_count = cur.s_count + a.a_count;
                  s_total_us = cur.s_total_us + a.a_total;
                  s_min_us = min cur.s_min_us a.a_min;
                  s_max_us = max cur.s_max_us a.a_max;
                  s_by_domain = (b.dom_id, a.a_total) :: cur.s_by_domain;
                })
            b.aggs)
        !all_bufs;
      {
        counters = sorted_bindings counters value;
        hists = sorted_bindings hists dist_of_hist;
        spans =
          sorted_bindings merged (fun s ->
              {
                s with
                s_by_domain =
                  List.sort
                    (fun (a, _) (b, _) -> Int.compare a b)
                    s.s_by_domain;
              });
      })

(* Subtract [older] from [newer], entry-wise by name.  Monotone fields
   (count, sum, totals, buckets) subtract exactly; window extrema are
   not recoverable from two cumulative snapshots, so min/max are passed
   through from [newer] as an over-approximation. *)
let diff newer older =
  let sub assoc name v = v - Option.value (List.assoc_opt name assoc) ~default:0 in
  let sub_pairs newer older =
    List.map (fun (k, v) -> (k, sub older k v)) newer
    |> List.filter (fun (_, v) -> v <> 0)
  in
  {
    counters =
      List.map (fun (n, v) -> (n, sub older.counters n v)) newer.counters;
    hists =
      List.map
        (fun (n, d) ->
          let od =
            Option.value (List.assoc_opt n older.hists)
              ~default:
                { count = 0; sum = 0; min_v = max_int; max_v = min_int;
                  buckets = [] }
          in
          ( n,
            {
              d with
              count = d.count - od.count;
              sum = d.sum - od.sum;
              buckets = sub_pairs d.buckets od.buckets;
            } ))
        newer.hists;
    spans =
      List.map
        (fun (n, s) ->
          let os =
            Option.value (List.assoc_opt n older.spans)
              ~default:
                { s_count = 0; s_total_us = 0; s_min_us = max_int;
                  s_max_us = min_int; s_by_domain = [] }
          in
          ( n,
            {
              s with
              s_count = s.s_count - os.s_count;
              s_total_us = s.s_total_us - os.s_total_us;
              s_by_domain = sub_pairs s.s_by_domain os.s_by_domain;
            } ))
        newer.spans;
  }

(* -- fatal-signal flush ------------------------------------------------------ *)

(* Telemetry writers (the --stats table, trace JSON, OpenMetrics file,
   collapsed profile) normally run from [at_exit], which a SIGINT or
   SIGTERM kill never reaches — losing the whole artifact exactly when
   it is most wanted.  Writers registered here additionally run from a
   handler that flushes everything and then re-raises the signal with
   default disposition, so the process still dies by that signal (its
   wait status is preserved) but the artifacts survive. *)

(* lint: domain-safe appends go through [locked] (registry_mutex);
   the signal handler runs on the main domain after argv handling *)
let flushers : (unit -> unit) list ref = ref []

(* lint: domain-safe set once, under [locked], on first registration *)
let flush_signals_installed = ref false

let run_flushers () =
  List.iter
    (fun f ->
      (* lint: exn-ok one failing writer must not block the remaining
         flushers or the re-raise that kills the process *)
      try f () with _ -> ())
    (List.rev !flushers)

let flush_and_reraise signum =
  run_flushers ();
  Sys.set_signal signum Sys.Signal_default;
  Unix.kill (Unix.getpid ()) signum

(* A long-lived server must not be cut down mid-request: the serving
   loop registers a deferral predicate that, when it returns true, takes
   over responsibility for draining and then calling [flush_and_reraise]
   itself.  [None] (the default) keeps the original flush-and-die
   behavior for every one-shot subcommand. *)
(* lint: domain-safe set once by the serving loop before it starts
   reading requests; read from the signal handler on the main domain *)
let signal_deferral : (int -> bool) option ref = ref None

let set_signal_deferral d = locked (fun () -> signal_deferral := d)

let handle_fatal signum =
  let deferred =
    match !signal_deferral with
    | None -> false
    (* lint: exn-ok a raising deferral predicate must not leak out of
       the signal handler; fall back to the immediate flush-and-die *)
    | Some d -> ( try d signum with _ -> false)
  in
  if not deferred then flush_and_reraise signum

let register_flusher f =
  locked (fun () ->
      flushers := f :: !flushers;
      if not !flush_signals_installed then begin
        flush_signals_installed := true;
        List.iter
          (fun s -> Sys.set_signal s (Sys.Signal_handle handle_fatal))
          [ Sys.sigint; Sys.sigterm ]
      end)
