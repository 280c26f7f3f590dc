(* Benchmark harness: regenerates every table and figure of the paper.

   Usage:
     dune exec bench/main.exe              # run everything
     dune exec bench/main.exe -- SECTION…  # run selected sections

   Sections: examples figure1 explosion table1 table2 size_audit postulates
   compilation

   Performance is measured by revbench (revbench/README.md), not here.
   Observability: REVKB_PROFILE=FILE samples the whole run into
   collapsed stacks; REVKB_METRICS_OUT=FILE writes an OpenMetrics
   snapshot at exit. *)

let sections =
  [
    ("examples", Worked_examples.run);
    ("figure1", Figure1.run);
    ("explosion", Explosion.run);
    ("table1", Table1.run);
    ("table2", Table2.run);
    ("size_audit", Size_audit.run);
    ("postulates", Postulates_bench.run);
    ("compilation", Compilation.run);
  ]

let () =
  Revkb_obs.Profile.start_from_env ();
  (match Sys.getenv_opt "REVKB_METRICS_OUT" with
  | None | Some "" -> ()
  | Some path ->
      Revkb_obs.Obs.set_enabled true;
      Revkb_obs.Gcstats.enable ();
      let write () =
        Revkb_obs.Gcstats.sample ();
        let oc = open_out path in
        output_string oc
          (Revkb_obs.Export.openmetrics (Revkb_obs.Obs.snapshot ()));
        close_out oc
      in
      at_exit write;
      Revkb_obs.Obs.register_flusher write);
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> List.map fst sections
  in
  print_endline
    "The Size of a Revised Knowledge Base (PODS'95) — reproduction benchmarks";
  print_endline
    "Every table/figure of the paper is regenerated below; see EXPERIMENTS.md";
  print_endline "for the paper-vs-measured record.";
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown section %S; available: %s\n" name
            (String.concat " " (List.map fst sections));
          exit 2)
    requested;
  (* Under REVKB_STATS=1 the accumulated instrumentation snapshot goes
     to stderr, after every section: one registry, whole-run totals. *)
  if Revkb_obs.Obs.enabled () then
    prerr_string (Revkb_obs.Export.table (Revkb_obs.Obs.snapshot ()));
  match Atomic.get Report.failed_checks with
  | 0 -> ()
  | n ->
      Printf.eprintf "%d paper self-check(s) failed\n" n;
      exit 1
