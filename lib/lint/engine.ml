type input = { path : string; content : string }

type result = {
  files_scanned : int;
  findings : Finding.t list;
  fresh : Finding.t list;
  baselined : Finding.t list;
}

let load_inputs inputs =
  List.map (fun { path; content } -> Rules.load_file ~path content) inputs

let analyze ?(usage = []) inputs =
  let lint = load_inputs inputs in
  let usage = load_inputs usage in
  let g = Rules.prepare ~lint ~usage in
  let parsed = List.concat_map Rules.parse_findings lint in
  let per_file = List.concat_map (Rules.check_file g) lint in
  let global = Rules.check_global g in
  (* Last: the passes above mark the exemptions they used. *)
  let stale = List.concat_map Rules.stale_findings lint in
  List.sort_uniq Finding.compare (parsed @ per_file @ global @ stale)

(* -- tree walking ----------------------------------------------------------- *)

let default_exts = [ ".ml"; ".mli" ]

let collect_tree ?(exts = default_exts) roots =
  let out = ref [] in
  let want path = List.exists (Filename.check_suffix path) exts in
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let rec walk path =
    if Sys.is_directory path then
      Array.iter
        (fun entry ->
          if entry <> "_build" && entry.[0] <> '.' && entry.[0] <> '_' then
            walk (Filename.concat path entry))
        (Sys.readdir path)
    else if want path then out := path :: !out
  in
  List.iter walk roots;
  List.sort compare (List.rev_map (fun p -> (p, read p)) !out)

(* -- baseline --------------------------------------------------------------- *)

let load_baseline path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let out = ref [] in
          (try
             while true do
               let line = String.trim (input_line ic) in
               if line <> "" && line.[0] <> '#' then
                 match String.split_on_char '\t' line with
                 | [ rule; file; key ] -> out := (rule, file, key) :: !out
                 | _ -> ()
             done
           with End_of_file -> ());
          List.rev !out)

let baseline_line (f : Finding.t) =
  Printf.sprintf "%s\t%s\t%s" (Finding.rule_id f.rule) f.file f.key

let run ?(usage = []) ?baseline inputs =
  let findings = analyze ~usage inputs in
  let known =
    match baseline with None -> [] | Some path -> load_baseline path
  in
  let in_baseline (f : Finding.t) =
    List.mem (Finding.rule_id f.rule, f.file, f.key) known
  in
  let baselined, fresh = List.partition in_baseline findings in
  { files_scanned = List.length inputs; findings; fresh; baselined }

(* -- rendering -------------------------------------------------------------- *)

let summary r =
  Printf.sprintf "%d file%s scanned, %d finding%s (%d new, %d baselined)"
    r.files_scanned
    (if r.files_scanned = 1 then "" else "s")
    (List.length r.findings)
    (if List.length r.findings = 1 then "" else "s")
    (List.length r.fresh)
    (List.length r.baselined)

let render_table r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun f ->
      Buffer.add_string buf (Finding.to_table_row f);
      if List.memq f r.baselined then Buffer.add_string buf "  [baselined]";
      Buffer.add_char buf '\n')
    r.findings;
  Buffer.add_string buf (summary r);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let render_json r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Finding.to_json ~baselined:(List.memq f r.baselined) f);
      Buffer.add_char buf '\n')
    r.findings;
  Buffer.add_string buf
    (Printf.sprintf
       "{\"type\": \"summary\", \"files\": %d, \"findings\": %d, \"new\": %d, \
        \"baselined\": %d}\n"
       r.files_scanned
       (List.length r.findings)
       (List.length r.fresh)
       (List.length r.baselined));
  Buffer.contents buf
