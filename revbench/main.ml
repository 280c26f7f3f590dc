(* The revkb benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads: cli-enumerate, serve-warm, serve-cold (README.md says why
   each exists and which layers it should and should not move).  One
   process, one closed-loop client, the work pool pinned to one job.

   A run replays a fixed number of whole passes of the seeded stream,
   set by [--seconds] and never by a clock, so every run times the same
   requests.  An operation's latency is its fastest timing over the
   passes; the percentiles are taken across the operations of one pass.

   --trace 0 runs with Obs off and prints the end-to-end metrics.
   --trace 1 replays a third of the passes in each of three modes taking
   turns -- Obs off, Obs on with span events, Obs on plus the sampling
   profiler -- and prints the per-layer ledger.  Both check every
   answer, print the work fingerprint and a noise line, and end with
   one JSON line. *)

module Obs = Revkb_obs.Obs
module W = Workload

let workload = ref ""
let seed = ref 0
let seconds = ref 10
let trace = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("revbench: " ^ msg);
      exit 2)
    fmt

(* The CLI whose start-up is cli-enumerate's set-up; run.py builds it. *)
let revkb = "_build/default/bin/revkb.exe"

let make_workload rng =
  match !workload with
  | "cli-enumerate" ->
      if not (Sys.file_exists revkb) then fail "%s is missing: run through revbench/run.py" revkb;
      Cli_enumerate.make ~rng ~revkb
  | "serve-warm" -> Serve_warm.make rng
  | "serve-cold" -> Serve_cold.make rng
  | w -> fail "unknown workload %S (cli-enumerate, serve-warm or serve-cold)" w

let passes (w : W.t) = max 3 (((w.passes_per_10s * !seconds) + 5) / 10)

let per x n = if n = 0 then 0. else x /. float_of_int n
let mean l = per (List.fold_left ( +. ) 0. l) (List.length l)

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           let v = if Float.is_finite v then v else 0. in
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let print_noise label (r : Runner.t) =
  Printf.printf "# noise%s: pass_ms=[%s] slowest/fastest median=%.3f\n" label
    (String.concat " " (List.rev_map (Printf.sprintf "%.1f") r.pass_ms))
    (Runner.spread r)

(* -- end to end ------------------------------------------------------------- *)

let end_to_end (r : Runner.t) ~sizes ~success ~heap_mb =
  let sorted = Runner.sorted_fastest r in
  let n = Array.length sorted in
  Printf.printf "# latency over %d ops of one pass (%d beyond p90), fastest of %d passes each\n"
    n
    (n - int_of_float (ceil (0.9 *. float_of_int n)))
    r.passes;
  [
    ("latency_p50_ms", "ms", Runner.quantile sorted 0.5 /. 1e6);
    ("latency_p90_ms", "ms", Runner.quantile sorted 0.9 /. 1e6);
    ("throughput_ops_s", "1/s", Runner.throughput r);
    ("revised_size_mean", "letters", mean (List.map float_of_int sizes));
    ("success_rate", "ratio", success);
    ("setup_s", "s", List.fold_left min infinity r.setups);
    ("peak_heap_mb", "MB", heap_mb);
  ]

(* -- the per-layer ledger ----------------------------------------------------- *)

let total table name = Option.value ~default:0 (Hashtbl.find_opt table name)

let ledger (w : W.t) ~passes =
  let off = Runner.create w and traced = Runner.create w and profiled = Runner.create w in
  (* The three modes take turns pass by pass, so a slow spell of the
     host lands on all three alike. *)
  for _ = 1 to passes do
    Runner.pass off;
    Obs.set_tracing true;
    Runner.pass traced;
    Obs.set_tracing false;
    Obs.set_enabled true;
    Revkb_obs.Profile.start ();
    Runner.pass profiled;
    Revkb_obs.Profile.stop ();
    Obs.set_enabled false
  done;
  let ops = w.ops and tp = traced.passes in
  let calls = ops * tp in
  (* Layers without spans: each operation probed once. *)
  let probe_total = Hashtbl.create 8 and probe_count = Hashtbl.create 8 in
  let covered_probe_ns = ref 0. in
  for k = 0 to ops - 1 do
    List.iter
      (fun (p : W.probe) ->
        let get t = Option.value ~default:0. (Hashtbl.find_opt t p.metric) in
        Hashtbl.replace probe_total p.metric (get probe_total +. p.ns);
        Hashtbl.replace probe_count p.metric (get probe_count +. 1.);
        if p.covers then covered_probe_ns := !covered_probe_ns +. p.ns)
      (w.probes k)
  done;
  let probe_ms name =
    match (Hashtbl.find_opt probe_total name, Hashtbl.find_opt probe_count name) with
    | Some t, Some c -> t /. c /. 1e6
    | _ -> 0.
  in
  let fp name = Option.value ~default:0 (List.assoc_opt name off.counters) in
  let span_ms names =
    per (float_of_int (List.fold_left (fun a n -> a + total traced.span_us n) 0 names) /. 1e3) calls
  in
  let ratio hits misses = per (float_of_int (fp hits)) (fp hits + fp misses) in
  let traced_ns = List.fold_left ( +. ) 0. traced.pass_ms *. 1e6 in
  let attributed = (float_of_int traced.covered_us *. 1e3) +. (!covered_probe_ns *. float_of_int tp) in
  let thr_off = Runner.throughput off in
  let overhead r = 1. -. (Runner.throughput r /. thr_off) in
  Printf.printf
    "# overhead: obs off %.1f ops/s | obs on, span events %.1f ops/s | obs on + profiler %.1f ops/s (%d samples)\n"
    thr_off (Runner.throughput traced) (Runner.throughput profiled)
    (Revkb_obs.Profile.sample_count ());
  print_noise " (obs off)" off;
  Printf.printf "# spans, ms per pass: %s\n"
    (String.concat " "
       (List.map
          (fun (name, us) -> Printf.sprintf "%s=%.2f" name (float_of_int us /. 1e3 /. float_of_int tp))
          (List.sort compare (List.of_seq (Hashtbl.to_seq traced.span_us)))));
  let count name = float_of_int (fp name) in
  let sweep_us = total traced.span_us "enum.sweep" in
  [
    ("serve.json.parse_ms", "ms/op", probe_ms "serve.json.parse_ms");
    ("serve.json.render_ms", "ms/op", probe_ms "serve.json.render_ms");
    ("logic.parser.parse_ms", "ms/op", probe_ms "logic.parser.parse_ms");
    ("serve.lru.hit_ratio", "ratio", ratio "serve.cache.hits" "serve.cache.misses");
    ("serve.lru.evictions", "1/pass", count "serve.cache.evictions");
    ("serve.registry.session_builds", "1/pass", count "serve.session.builds");
    ("compact.construct_ms", "ms/op", span_ms [ "serve.revise" ]);
    ("compact.check_ms", "ms/op", span_ms [ "check.batch"; "check.model_check" ]);
    ("compact.cegar_iters", "1/pass", count "check.cegar_iters");
    ("logic.semantics.query_ms", "ms/op", span_ms [ "sem.query" ]);
    ("logic.semantics.encode_clauses", "1/pass", count "sem.encode.clauses");
    ("sat.solve_ms", "ms/op", span_ms [ "sat.solve" ]);
    ("sat.solves", "1/pass", count "sat.solves");
    ("sat.conflicts", "1/pass", count "sat.conflicts");
    ("sat.propagations", "1/pass", count "sat.propagations");
    ("logic.bdd.apply_ms", "ms/op", span_ms [ "bdd.apply" ]);
    ("logic.bdd.cache_hit_ratio", "ratio", ratio "bdd.cache.hits" "bdd.cache.misses");
    ("logic.bdd.nodes_live", "1/pass", count "bdd.nodes.live");
    ( "logic.bdd.compile_ms",
      "ms/setup",
      per (float_of_int (total traced.setup_span_us "bdd.compile") /. 1e3) (List.length traced.setups) );
    ("parallel.pool.tasks", "1/pass", count "pool.tasks" +. count "pool.inline_tasks");
    ("parallel.pool.busy_ms", "ms/op", span_ms [ "pool.task" ]);
    ("logic.models.enumerate_ms", "ms/op", span_ms [ "models.enumerate" ]);
    ("logic.models.sweep_codes", "1/pass", count "enum.sweep_codes");
    ( "logic.models.sweep_ns_per_code",
      "ns",
      per (float_of_int sweep_us *. 1e3) (tp * fp "enum.sweep_codes") );
    ("revision.distance_ms", "ms/op", span_ms [ "dist.k_global"; "dist.delta" ]);
    ("revision.model_based.select_ms", "ms/op", probe_ms "revision.model_based.select_ms");
    ("revision.result.render_ms", "ms/op", probe_ms "revision.result.render_ms");
    ("revision.operator.wide_call_ms", "ms/call", probe_ms "revision.operator.wide_call_ms");
    ("gc.minor_collections_per_op", "1/op", per (float_of_int off.minor_collections) (ops * off.passes));
    ("gc.allocated_words_per_op", "words/op", off.allocated_words /. float_of_int (ops * off.passes));
    ("trace.unattributed_frac", "frac", 1. -. (attributed /. traced_ns));
    ("trace.overhead_frac", "frac", overhead traced);
    ("trace.profiler_overhead_frac", "frac", overhead profiled);
  ]
  , [ off; traced; profiled ]

let () =
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME cli-enumerate | serve-warm | serve-cold");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length; sets the number of passes");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer ledger");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  Revkb_parallel.Pool.set_default_jobs 1;
  Obs.set_enabled false;
  let t0 = Runner.now_ns () in
  let w = make_workload (Random.State.make [| !seed |]) in
  let t1 = Runner.now_ns () in
  let passes = passes w in
  Printf.printf "# workload=%s seed=%d seconds=%d trace=%d passes=%d ops/pass=%d jobs=1\n%!"
    w.name !seed !seconds !trace passes w.ops;
  let metrics, runs =
    if !trace = 1 then ledger w ~passes:(max 2 (passes / 3))
    else begin
      let r = Runner.create w in
      Runner.run r ~passes;
      print_noise "" r;
      ([], [ r ])
    end
  in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let t2 = Runner.now_ns () in
  let good = w.verify () in
  let secs a b = float_of_int (b - a) /. 1e9 in
  Printf.printf "# wall: generate %.2f s, passes %.2f s, verify %.2f s\n" (secs t0 t1) (secs t1 t2)
    (secs t2 (Runner.now_ns ()));
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun (r : Runner.t) ->
      attempted := !attempted + (w.ops * r.passes);
      Array.iteri (fun k bad -> failed := !failed + if good k then bad else r.passes) r.bad)
    runs;
  let attempted = !attempted and failed = !failed in
  let r = List.hd runs in
  (* A pass whose counters differ from the others did different work. *)
  let fp = Runner.fingerprint r in
  let steady = List.for_all (fun r -> List.for_all (( = ) fp) r.Runner.fingerprints) runs in
  Printf.printf "# fingerprint (one pass, %d ops)%s: %s\n" w.ops
    (if steady then "" else " DIFFERS BETWEEN PASSES")
    (String.concat " " (List.map (fun (c, v) -> Printf.sprintf "%s=%d" c v) fp));
  Printf.printf "# %s: attempted %d succeeded %d failed %d\n" w.name attempted (attempted - failed) failed;
  let metrics =
    if !trace = 1 then metrics
    else
      let sizes = List.filter_map Fun.id (Array.to_list r.sizes) in
      end_to_end r ~sizes ~success:(per (float_of_int (attempted - failed)) attempted) ~heap_mb
  in
  print_result ~correct:(failed = 0 && steady) ~attempted ~failed metrics
