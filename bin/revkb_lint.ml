(* revkb-lint: the repo's own static analyzer (see lib/lint).

   Usage: revkb_lint [--json] [--report FILE] [--baseline FILE]
                     [--update-baseline] [--usage DIR]... [ROOT]...

   Default roots are lib, bin and bench; test, examples and revbench
   feed the usage index (R5 reachability) without being linted.  Exit status: 0
   when every finding is baselined (or there are none), 1 on new
   findings, 2 on usage errors. *)

let usage_msg =
  "revkb_lint [--json] [--report FILE] [--baseline FILE] [--update-baseline] \
   [ROOT]..."

let () =
  let json = ref false in
  let report = ref "" in
  let baseline = ref "" in
  let update_baseline = ref false in
  let usage_dirs = ref [] in
  let roots = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " print findings as JSON lines");
      ( "--report",
        Arg.Set_string report,
        "FILE also write the JSON-lines report to FILE" );
      ( "--baseline",
        Arg.Set_string baseline,
        "FILE accepted findings; fail only on findings not listed" );
      ( "--update-baseline",
        Arg.Set update_baseline,
        " rewrite the baseline file with the current findings" );
      ( "--usage",
        Arg.String (fun d -> usage_dirs := d :: !usage_dirs),
        "DIR extra directory feeding the usage index only" );
    ]
  in
  Arg.parse (Arg.align spec) (fun r -> roots := r :: !roots) usage_msg;
  let roots =
    match List.rev !roots with [] -> [ "lib"; "bin"; "bench" ] | rs -> rs
  in
  let default_usage =
    List.filter
      (fun d -> Sys.file_exists d && Sys.is_directory d)
      [ "test"; "examples"; "revbench" ]
  in
  let usage_roots = List.rev !usage_dirs @ default_usage in
  let to_inputs pairs =
    List.map (fun (path, content) -> { Lint.Engine.path; content }) pairs
  in
  match
    ( Lint.Engine.collect_tree roots,
      if usage_roots = [] then [] else Lint.Engine.collect_tree usage_roots )
  with
  | exception Sys_error msg ->
      prerr_endline ("revkb-lint: " ^ msg);
      exit 2
  | lint_files, usage_files ->
      let result =
        Lint.Engine.run
          ~usage:(to_inputs usage_files)
          ?baseline:(if !baseline = "" then None else Some !baseline)
          (to_inputs lint_files)
      in
      if !update_baseline then begin
        if !baseline = "" then begin
          prerr_endline "revkb-lint: --update-baseline needs --baseline FILE";
          exit 2
        end;
        let oc = open_out !baseline in
        output_string oc
          "# revkb-lint baseline: rule<TAB>file<TAB>key per accepted \
           finding.\n\
           # Regenerate with: revkb_lint --baseline lint.baseline \
           --update-baseline\n";
        List.iter
          (fun f ->
            output_string oc (Lint.Engine.baseline_line f);
            output_char oc '\n')
          result.findings;
        close_out oc
      end;
      let rendered =
        if !json then Lint.Engine.render_json result
        else Lint.Engine.render_table result
      in
      print_string rendered;
      if !report <> "" then begin
        let oc = open_out !report in
        output_string oc (Lint.Engine.render_json result);
        close_out oc
      end;
      exit (if result.fresh = [] || !update_baseline then 0 else 1)
