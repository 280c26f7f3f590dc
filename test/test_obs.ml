(* Instrumentation layer tests: registry counters and histograms, span
   aggregation (single- and multi-domain), snapshot/diff/reset, the
   exporters (inline golden strings), and the disabled-path allocation
   guard.  Test instruments use a "t." name prefix so global registry
   traffic from the instrumented engine never collides with them. *)

module Obs = Revkb_obs.Obs
module Export = Revkb_obs.Export
module Profile = Revkb_obs.Profile
module Gcstats = Revkb_obs.Gcstats
module Pool = Revkb_parallel.Pool

let check_bool = Helpers.check_bool
let check_int = Helpers.check_int
let check_str name expected actual =
  Alcotest.(check string) name expected actual

(* Run [f] with the flags forced, restoring them afterwards — the CI
   matrix runs this suite under REVKB_STATS=1, so tests must not leak
   flag changes into each other or assume a pristine initial state. *)
let with_flags ~enabled ~tracing f =
  let e = Obs.enabled () and t = Obs.tracing () in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_tracing t;
      Obs.set_enabled e)
    (fun () ->
      Obs.set_tracing tracing;
      Obs.set_enabled enabled;
      f ())

(* -- counters ------------------------------------------------------------- *)

let test_counter_basics () =
  let c = Obs.counter "t.basic" in
  let c' = Obs.counter "t.basic" in
  Obs.reset_counter c;
  Obs.incr c;
  Obs.add c' 4;
  check_int "same name shares one cell" 5 (Obs.value c);
  check_str "name" "t.basic" (Obs.counter_name c);
  Obs.reset_counter c;
  check_int "reset" 0 (Obs.value c');
  (* Counters are never gated: they must record with recording off. *)
  with_flags ~enabled:false ~tracing:false (fun () -> Obs.incr c);
  check_int "ungated" 1 (Obs.value c)

let pool_count jobs =
  let c = Obs.counter "t.pool" in
  Obs.reset_counter c;
  Pool.with_jobs jobs (fun () ->
      let pool = Pool.global () in
      Pool.run pool (Array.init 64 (fun _ () -> Obs.incr c)));
  Obs.value c

let test_counter_across_domains () =
  check_int "jobs=1" 64 (pool_count 1);
  check_int "jobs=4" 64 (pool_count 4)

(* -- histograms and timers ------------------------------------------------ *)

let test_histogram () =
  with_flags ~enabled:true ~tracing:false (fun () ->
      let h = Obs.hist "t.hist" in
      List.iter (Obs.observe h) [ 1; 2; 3; 1024 ];
      let d = List.assoc "t.hist" (Obs.snapshot ()).Obs.hists in
      check_int "count" 4 d.Obs.count;
      check_int "sum" 1030 d.Obs.sum;
      check_int "min" 1 d.Obs.min_v;
      check_int "max" 1024 d.Obs.max_v;
      (* Power-of-two buckets by inclusive lower bound: bucket 0 holds
         values <= 1, then 2,3 | ... | 1024. *)
      check_int "bucket 0" 1 (List.assoc 0 d.Obs.buckets);
      check_int "bucket 2" 2 (List.assoc 2 d.Obs.buckets);
      check_int "bucket 1024" 1 (List.assoc 1024 d.Obs.buckets))

let test_histogram_disabled () =
  with_flags ~enabled:false ~tracing:false (fun () ->
      let h = Obs.hist "t.hist.off" in
      Obs.observe h 7;
      let d = List.assoc "t.hist.off" (Obs.snapshot ()).Obs.hists in
      check_int "disabled observe drops" 0 d.Obs.count)

let test_timer () =
  with_flags ~enabled:true ~tracing:false (fun () ->
      let h = Obs.hist "t.time" in
      check_int "value passes through" 42 (Obs.time h (fun () -> 42));
      (match Obs.time h (fun () -> failwith "boom") with
      | exception Failure msg -> check_str "exception re-raised" "boom" msg
      | _ -> Alcotest.fail "timed exception swallowed");
      let d = List.assoc "t.time" (Obs.snapshot ()).Obs.hists in
      check_int "both runs timed" 2 d.Obs.count)

(* -- spans ---------------------------------------------------------------- *)

let test_span_nesting_and_trace () =
  with_flags ~enabled:true ~tracing:true (fun () ->
      Obs.clear_trace ();
      let depth_inside = ref (-1) in
      let v =
        Obs.with_span "t.outer"
          ~attrs:(fun () -> [ ("k", "v") ])
          (fun () ->
            Obs.with_span "t.inner" (fun () ->
                depth_inside := Obs.span_depth ();
                7))
      in
      check_int "value passes through" 7 v;
      check_int "nested depth" 2 !depth_inside;
      check_int "depth unwound" 0 (Obs.span_depth ());
      let mine =
        List.filter
          (fun (e : Obs.event) ->
            e.Obs.ev_name = "t.outer" || e.Obs.ev_name = "t.inner")
          (Obs.trace_events ())
      in
      (match mine with
      | [ outer; inner ] ->
          check_str "parent sorts first" "t.outer" outer.Obs.ev_name;
          check_bool "attrs captured" true (outer.Obs.ev_args = [ ("k", "v") ]);
          check_bool "child contained in parent" true
            (outer.Obs.ev_start_us <= inner.Obs.ev_start_us
            && inner.Obs.ev_start_us + inner.Obs.ev_dur_us
               <= outer.Obs.ev_start_us + outer.Obs.ev_dur_us)
      | evs -> Alcotest.failf "expected 2 trace events, got %d" (List.length evs));
      Obs.clear_trace ();
      check_int "clear_trace" 0 (List.length (Obs.trace_events ())))

let test_span_exception () =
  with_flags ~enabled:true ~tracing:false (fun () ->
      (match Obs.with_span "t.raise" (fun () -> failwith "span boom") with
      | exception Failure msg -> check_str "re-raised" "span boom" msg
      | _ -> Alcotest.fail "span exception swallowed");
      check_int "depth unwound after raise" 0 (Obs.span_depth ());
      let st = List.assoc "t.raise" (Obs.snapshot ()).Obs.spans in
      check_int "raising span still recorded" 1 st.Obs.s_count)

let span_work jobs =
  Pool.with_jobs jobs (fun () ->
      let pool = Pool.global () in
      Pool.run pool
        (Array.init 32 (fun _ () ->
             Obs.with_span "t.domwork" (fun () ->
                 ignore (Sys.opaque_identity (ref 0))))))

let test_span_across_domains () =
  with_flags ~enabled:true ~tracing:false (fun () ->
      let base =
        match List.assoc_opt "t.domwork" (Obs.snapshot ()).Obs.spans with
        | Some st -> st.Obs.s_count
        | None -> 0
      in
      span_work 1;
      span_work 4;
      let st = List.assoc "t.domwork" (Obs.snapshot ()).Obs.spans in
      check_int "every span merged into the snapshot" (base + 64)
        st.Obs.s_count;
      check_int "per-domain totals sum to the total" st.Obs.s_total_us
        (List.fold_left (fun acc (_, us) -> acc + us) 0 st.Obs.s_by_domain))

(* -- snapshot / diff / reset ---------------------------------------------- *)

let test_snapshot_diff () =
  let c = Obs.counter "t.diff" in
  Obs.reset_counter c;
  let s0 = Obs.snapshot () in
  Obs.add c 5;
  let s1 = Obs.snapshot () in
  check_int "diff subtracts by name" 5
    (List.assoc "t.diff" (Obs.diff s1 s0).Obs.counters);
  check_int "self-diff is zero" 0
    (List.assoc "t.diff" (Obs.diff s1 s1).Obs.counters)

let test_reset () =
  with_flags ~enabled:true ~tracing:false (fun () ->
      Obs.incr (Obs.counter "t.reset");
      Obs.observe (Obs.hist "t.reset.h") 9;
      Obs.with_span "t.reset.s" (fun () -> ());
      Obs.reset ();
      let s = Obs.snapshot () in
      check_bool "all counters zero" true
        (List.for_all (fun (_, v) -> v = 0) s.Obs.counters);
      check_bool "all histograms empty" true
        (List.for_all (fun (_, d) -> d.Obs.count = 0) s.Obs.hists);
      check_bool "all spans empty" true
        (List.for_all (fun (_, st) -> st.Obs.s_count = 0) s.Obs.spans);
      check_int "trace cleared" 0 (List.length (Obs.trace_events ())))

(* -- exporters ------------------------------------------------------------ *)

let golden_snapshot =
  {
    Obs.counters =
      [ ("sem.ladder.probes", 7); ("t.alpha", 3); ("t.beta", 0) ];
    hists =
      [
        ( "t.h",
          {
            Obs.count = 2;
            sum = 1030;
            min_v = 6;
            max_v = 1024;
            buckets = [ (4, 1); (1024, 1) ];
          } );
      ];
    spans =
      [
        ( "t.s",
          {
            Obs.s_count = 2;
            s_total_us = 3000;
            s_min_us = 1000;
            s_max_us = 2000;
            s_by_domain = [ (0, 1000); (3, 2000) ];
          } );
      ];
  }

let test_export_table () =
  let out = Export.table golden_snapshot in
  let has = Helpers.contains_substring out in
  check_bool "counters section" true (has "== counters ==");
  check_bool "nonzero counter shown" true (has "t.alpha");
  check_bool "session counter shown" true (has "sem.ladder.probes");
  check_bool "zero counter elided" false (has "t.beta");
  check_bool "histogram row" true (has "count=2 sum=1030 min=6 max=1024");
  check_bool "span row" true (has "total=3.0ms min=1.0ms max=2.0ms");
  check_bool "per-domain totals" true (has "[d0: 1.0ms, d3: 2.0ms]")

let test_export_json_lines () =
  check_str "json lines golden"
    ("{\"type\": \"counter\", \"name\": \"sem.ladder.probes\", \"value\": \
      7}\n"
   ^ "{\"type\": \"counter\", \"name\": \"t.alpha\", \"value\": 3}\n"
   ^ "{\"type\": \"counter\", \"name\": \"t.beta\", \"value\": 0}\n"
   ^ "{\"type\": \"histogram\", \"name\": \"t.h\", \"count\": 2, \"sum\": \
      1030, \"min\": 6, \"max\": 1024}\n"
   ^ "{\"type\": \"span\", \"name\": \"t.s\", \"count\": 2, \"total_us\": \
      3000, \"min_us\": 1000, \"max_us\": 2000}\n")
    (Export.json_lines golden_snapshot)

let test_export_chrome_trace () =
  let events =
    [
      {
        Obs.ev_name = "a";
        ev_domain = 0;
        ev_start_us = 1000;
        ev_dur_us = 500;
        ev_args = [ ("n", "4") ];
      };
      {
        Obs.ev_name = "b";
        ev_domain = 0;
        ev_start_us = 1100;
        ev_dur_us = 100;
        ev_args = [];
      };
    ]
  in
  check_str "chrome trace golden"
    ("[\n"
   ^ "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
      \"args\": {\"name\": \"domain 0\"}},\n"
   ^ "  {\"name\": \"a\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"ts\": 0, \
      \"dur\": 500, \"args\": {\"n\": \"4\"}},\n"
   ^ "  {\"name\": \"b\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"ts\": \
      100, \"dur\": 100}\n"
   ^ "]\n")
    (Export.chrome_trace events)

let test_json_primitives () =
  check_str "escape specials" "a\\\"b\\\\c\\nd"
    (Export.json_escape "a\"b\\c\nd");
  check_str "escape control" "\\u0001" (Export.json_escape "\x01");
  check_str "string wraps" "\"x\"" (Export.json_string "x");
  check_str "float finite" "1.5" (Export.json_float 1.5);
  check_str "float compact" "12345.7" (Export.json_float 12345.678);
  let rejects v =
    match Export.json_float v with
    | exception Invalid_argument msg ->
        Helpers.contains_substring msg "non-finite"
    | _ -> false
  in
  check_bool "nan rejected" true (rejects Float.nan);
  check_bool "+inf rejected" true (rejects Float.infinity);
  check_bool "-inf rejected" true (rejects Float.neg_infinity)

let test_openmetrics_golden () =
  check_str "openmetrics golden"
    ("# TYPE revkb_sem_ladder_probes counter\n\
      revkb_sem_ladder_probes_total 7\n\
      # TYPE revkb_t_alpha counter\n\
      revkb_t_alpha_total 3\n\
      # TYPE revkb_t_beta counter\n\
      revkb_t_beta_total 0\n\
      # TYPE revkb_t_h histogram\n\
      revkb_t_h_bucket{le=\"7\"} 1\n\
      revkb_t_h_bucket{le=\"2047\"} 2\n\
      revkb_t_h_bucket{le=\"+Inf\"} 2\n\
      revkb_t_h_sum 1030\n\
      revkb_t_h_count 2\n\
      # TYPE revkb_t_s_seconds summary\n\
      revkb_t_s_seconds_count 2\n\
      revkb_t_s_seconds_sum 0.003\n\
      # EOF\n")
    (Export.openmetrics golden_snapshot)

(* Bucket boundaries through a real registry histogram: 1 lands in
   bucket 0 (le="1"), 2 in [2,4) (le="3"), 1024 in [1024,2048)
   (le="2047") — the le labels are the inclusive upper bounds of the
   power-of-two buckets, and the cumulative counts must sum. *)
let test_openmetrics_bucket_boundaries () =
  with_flags ~enabled:true ~tracing:false (fun () ->
      let h = Obs.hist "t.om.edges" in
      List.iter (Obs.observe h) [ 1; 2; 1024 ];
      let d = List.assoc "t.om.edges" (Obs.snapshot ()).Obs.hists in
      let out =
        Export.openmetrics { Obs.counters = []; hists = [ ("t.om.edges", d) ]; spans = [] }
      in
      let has = Helpers.contains_substring out in
      check_bool "le=1 cumulative 1" true (has "revkb_t_om_edges_bucket{le=\"1\"} 1\n");
      check_bool "le=3 cumulative 2" true (has "revkb_t_om_edges_bucket{le=\"3\"} 2\n");
      check_bool "le=2047 cumulative 3" true
        (has "revkb_t_om_edges_bucket{le=\"2047\"} 3\n");
      check_bool "+Inf equals count" true (has "revkb_t_om_edges_bucket{le=\"+Inf\"} 3\n"))

let test_openmetrics_empty_hist () =
  let empty =
    { Obs.count = 0; sum = 0; min_v = max_int; max_v = min_int; buckets = [] }
  in
  check_str "empty histogram still well-formed"
    ("# TYPE revkb_t_empty histogram\n\
      revkb_t_empty_bucket{le=\"+Inf\"} 0\n\
      revkb_t_empty_sum 0\n\
      revkb_t_empty_count 0\n\
      # EOF\n")
    (Export.openmetrics
       { Obs.counters = []; hists = [ ("t.empty", empty) ]; spans = [] })

let test_metric_float () =
  check_str "finite" "1.5" (Export.metric_float 1.5);
  let rejects v =
    match Export.metric_float v with
    | exception Invalid_argument msg ->
        Helpers.contains_substring msg "non-finite"
    | _ -> false
  in
  check_bool "nan rejected" true (rejects Float.nan);
  check_bool "+inf rejected" true (rejects Float.infinity);
  check_bool "-inf rejected" true (rejects Float.neg_infinity)

(* -- profiler ------------------------------------------------------------- *)

let test_current_span () =
  with_flags ~enabled:true ~tracing:false (fun () ->
      check_bool "none outside spans" true (Obs.current_span () = None);
      Obs.with_span "t.cur.outer" (fun () ->
          Obs.with_span "t.cur.inner" (fun () ->
              check_bool "innermost wins" true
                (Obs.current_span () = Some "t.cur.inner"));
          check_bool "inner popped" true
            (Obs.current_span () = Some "t.cur.outer"));
      check_bool "unwound" true (Obs.current_span () = None))

(* A reader bound on one domain answers for that domain wherever it is
   called: the profiler's handler may run on a pool worker. *)
let test_span_reader_cross_domain () =
  with_flags ~enabled:true ~tracing:false (fun () ->
      let read =
        Obs.with_span "t.reader" (fun () ->
            let read = Obs.span_reader () in
            let from_other, other_own =
              Domain.join
                (Domain.spawn (fun () -> (read (), Obs.current_span ())))
            in
            check_bool "reader answers for the binding domain" true
              (from_other = Some "t.reader");
            check_bool "the calling domain's own stack is separate" true
              (other_own = None);
            read)
      in
      check_bool "reader follows the unwind" true (read () = None))

let test_profile_guards () =
  (match Profile.start ~hz:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "hz=0 accepted");
  (match Profile.start ~hz:1001 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "hz=1001 accepted")

let test_profile_samples_and_span () =
  with_flags ~enabled:true ~tracing:false (fun () ->
      Profile.start ~hz:500 ();
      Fun.protect ~finally:Profile.stop (fun () ->
          (match Profile.folded () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "folded while running should raise");
          (match Profile.start () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "double start should raise");
          (* Spin real OCaml work (allocation = safepoints) until the
             timer has delivered a few samples; bounded so a loaded CI
             machine fails loudly instead of hanging. *)
          let deadline = Unix.gettimeofday () +. 10.0 in
          Obs.with_span "t.profspan" (fun () ->
              while
                Profile.sample_count () < 3
                && Unix.gettimeofday () < deadline
              do
                ignore (Sys.opaque_identity (List.init 256 (fun i -> i * i)))
              done));
      Profile.stop () (* idempotent *);
      check_bool "samples captured" true (Profile.sample_count () > 0);
      let stacks = Profile.folded () in
      check_bool "folded non-empty" true (stacks <> []);
      check_bool "counts positive" true
        (List.for_all (fun (_, c) -> c > 0) stacks);
      check_bool "samples attributed to the open span" true
        (List.exists
           (fun (s, _) -> Helpers.contains_substring s "[span] t.profspan")
           stacks);
      check_bool "dropped is non-negative" true (Profile.dropped () >= 0))

(* Profiling with parked pool workers alive: the runtime then runs some
   SIGALRM handlers on a worker domain.  Every sample must still carry
   the profiled domain's open span (one may fall between the span's
   exit and [stop]), and the process must survive. *)
let test_profile_with_workers_alive () =
  let c = Obs.counter "t.profworkers.c" in
  Pool.with_jobs 4 (fun () ->
      Pool.run (Pool.global ()) (Array.init 8 (fun _ () -> Obs.incr c)));
  with_flags ~enabled:true ~tracing:false (fun () ->
      Profile.start ~hz:500 ();
      Fun.protect ~finally:Profile.stop (fun () ->
          let deadline = Unix.gettimeofday () +. 10.0 in
          Obs.with_span "t.profworkers" (fun () ->
              while
                Profile.sample_count () < 20
                && Unix.gettimeofday () < deadline
              do
                ignore (Sys.opaque_identity (List.init 256 (fun i -> i * i)))
              done));
      let stacks = Profile.folded () in
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 stacks in
      let attributed =
        List.fold_left
          (fun acc (s, n) ->
            if Helpers.contains_substring s "[span] t.profworkers" then acc + n
            else acc)
          0 stacks
      in
      check_bool "samples captured" true (total > 0);
      check_bool "samples carry the profiled domain's span" true
        (attributed >= total - 1))

(* -- gcstats -------------------------------------------------------------- *)

let test_gcstats_sample () =
  with_flags ~enabled:true ~tracing:false (fun () ->
      Gcstats.sample ();
      let alloc0 = Obs.value (Obs.counter "gc.allocated_words") in
      let heap0 =
        (List.assoc "gc.heap_words" (Obs.snapshot ()).Obs.hists).Obs.count
      in
      ignore (Sys.opaque_identity (Array.init 100_000 string_of_int));
      Gcstats.sample ();
      check_bool "allocated_words grew" true
        (Obs.value (Obs.counter "gc.allocated_words") > alloc0);
      check_bool "heap_words observed" true
        ((List.assoc "gc.heap_words" (Obs.snapshot ()).Obs.hists).Obs.count
        > heap0))

let test_gcstats_span_hook () =
  with_flags ~enabled:true ~tracing:false (fun () ->
      Gcstats.enable ();
      Fun.protect ~finally:Gcstats.disable (fun () ->
          let heap0 =
            (List.assoc "gc.heap_words" (Obs.snapshot ()).Obs.hists).Obs.count
          in
          (* Outlast the tick rate limit (default 10ms), then exit a
             span: the boundary hook must take exactly one sample. *)
          Unix.sleepf 0.05;
          Obs.with_span "t.gctick" (fun () -> ());
          check_bool "span exit sampled" true
            ((List.assoc "gc.heap_words" (Obs.snapshot ()).Obs.hists).Obs.count
            > heap0)))

(* -- flushers ------------------------------------------------------------- *)

let test_flushers () =
  let hits = ref 0 in
  Obs.register_flusher (fun () -> failwith "skipped, not fatal");
  Obs.register_flusher (fun () -> incr hits);
  Obs.run_flushers ();
  check_int "later flusher runs despite earlier failure" 1 !hits;
  Obs.run_flushers ();
  check_int "flushers re-run on demand" 2 !hits

(* -- disabled-path cost --------------------------------------------------- *)

(* With recording off, the gated instruments must be a flag read: no
   allocation on the hot path.  Counters always record but are a single
   unboxed atomic add, so they are held to the same budget. *)
let test_disabled_no_alloc () =
  with_flags ~enabled:false ~tracing:false (fun () ->
      let h = Obs.hist "t.noalloc.h" in
      let c = Obs.counter "t.noalloc.c" in
      let body = Sys.opaque_identity (fun () -> ()) in
      for _ = 1 to 100 do
        Obs.with_span "t.noalloc.s" body;
        Obs.observe h 3;
        Obs.incr c
      done;
      let before = Gc.allocated_bytes () in
      for _ = 1 to 10_000 do
        Obs.with_span "t.noalloc.s" body;
        Obs.observe h 3;
        Obs.incr c
      done;
      let allocated = Gc.allocated_bytes () -. before in
      if allocated > 10_000. then
        Alcotest.failf
          "disabled instrumentation allocated %.0f bytes over 10k \
           span+observe+incr rounds (expected ~0)"
          allocated)

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "jobs=1 vs jobs=4" `Quick
            test_counter_across_domains;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "observe" `Quick test_histogram;
          Alcotest.test_case "disabled drops" `Quick test_histogram_disabled;
          Alcotest.test_case "timer" `Quick test_timer;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and trace" `Quick
            test_span_nesting_and_trace;
          Alcotest.test_case "exception passthrough" `Quick
            test_span_exception;
          Alcotest.test_case "across domains" `Quick test_span_across_domains;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "diff" `Quick test_snapshot_diff;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "export",
        [
          Alcotest.test_case "table" `Quick test_export_table;
          Alcotest.test_case "json lines" `Quick test_export_json_lines;
          Alcotest.test_case "chrome trace" `Quick test_export_chrome_trace;
          Alcotest.test_case "json primitives" `Quick test_json_primitives;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "golden snapshot" `Quick test_openmetrics_golden;
          Alcotest.test_case "bucket boundaries" `Quick
            test_openmetrics_bucket_boundaries;
          Alcotest.test_case "empty histogram" `Quick
            test_openmetrics_empty_hist;
          Alcotest.test_case "metric_float rejects non-finite" `Quick
            test_metric_float;
        ] );
      ( "profile",
        [
          Alcotest.test_case "current_span" `Quick test_current_span;
          Alcotest.test_case "start guards" `Quick test_profile_guards;
          Alcotest.test_case "samples and span attribution" `Quick
            test_profile_samples_and_span;
          Alcotest.test_case "span_reader across domains" `Quick
            test_span_reader_cross_domain;
          Alcotest.test_case "samples with pool workers alive" `Quick
            test_profile_with_workers_alive;
        ] );
      ( "gcstats",
        [
          Alcotest.test_case "sample deltas" `Quick test_gcstats_sample;
          Alcotest.test_case "span-boundary tick" `Quick
            test_gcstats_span_hook;
        ] );
      ( "flushers",
        [ Alcotest.test_case "run and skip failures" `Quick test_flushers ] );
      ( "overhead",
        [
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_no_alloc;
        ] );
    ]
