(* Fatal-signal telemetry flush, end to end: spawn
   [revkb trace -o T --metrics-out M repl] (repl blocks on stdin held
   open by a pipe), SIGTERM it mid-read, and assert that

   - the child died by SIGTERM (the flush handlers re-raise, so the
     exit status still reports the signal), and
   - both the Chrome trace and the OpenMetrics artifact were written
     complete (valid JSON array brackets; "# EOF" terminator) by the
     signal-path flushers, which [at_exit] never got to run.

   A second case covers the serve daemon: feed it a small workload,
   wait for every reply (so the loop is parked in [read] again, the
   idle signal path), SIGTERM it, and assert the same
   died-by-signal-with-complete-artifacts contract — now with the
   serve.* counters present in the OpenMetrics exposition.

   A third case: a client of [revkb serve --socket] sends a load and
   198 revise lines and hangs up unread; the daemon must not die by
   SIGPIPE and must answer the next client's [stats].

   Usage: signal_kill.exe PATH-TO-REVKB *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("signal_kill: " ^ s);
      exit 1)
    fmt

let read_all path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_signaled status =
  match status with
  | Unix.WSIGNALED s when s = Sys.sigterm -> ()
  | Unix.WSIGNALED s -> fail "child died by signal %d, not SIGTERM" s
  | Unix.WEXITED c -> fail "child exited %d instead of dying by SIGTERM" c
  | Unix.WSTOPPED _ -> fail "child stopped"

let check_trace path =
  let t = String.trim (read_all path) in
  if not (String.length t >= 2 && t.[0] = '[' && t.[String.length t - 1] = ']')
  then fail "trace %s is not a complete JSON array: %S" path t

let check_metrics path =
  let m = read_all path in
  let eof = "# EOF\n" in
  let n = String.length m and e = String.length eof in
  if n < e || String.sub m (n - e) e <> eof then
    fail "metrics %s does not end with %S" path eof;
  m

let () =
  if Array.length Sys.argv < 2 then fail "usage: signal_kill.exe REVKB";
  let revkb = Sys.argv.(1) in
  let trace = Filename.temp_file "revkb_sigkill_trace" ".json" in
  let metrics = Filename.temp_file "revkb_sigkill_metrics" ".om" in
  let stdin_r, stdin_w = Unix.pipe () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process revkb
      [| revkb; "trace"; "-o"; trace; "--metrics-out"; metrics; "repl" |]
      stdin_r null null
  in
  Unix.close stdin_r;
  Unix.close null;
  (* Give the child time to finish startup and block in read_line; the
     write end of the pipe stays open so EOF never arrives. *)
  Unix.sleepf 1.0;
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  Unix.close stdin_w;
  check_signaled status;
  check_trace trace;
  ignore (check_metrics metrics);
  Sys.remove trace;
  Sys.remove metrics;
  print_endline "signal_kill: SIGTERM flush left complete trace and metrics";

  (* -- serve daemon ---------------------------------------------------- *)
  let trace = Filename.temp_file "revkb_sigkill_strace" ".json" in
  let metrics = Filename.temp_file "revkb_sigkill_smetrics" ".om" in
  let stdin_r, stdin_w = Unix.pipe () in
  let stdout_r, stdout_w = Unix.pipe () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process revkb
      [| revkb; "trace"; "-o"; trace; "--metrics-out"; metrics; "serve" |]
      stdin_r stdout_w null
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  Unix.close null;
  let workload =
    String.concat "\n"
      [
        {|{"id":1,"verb":"load","kb":"k","theory":"a; a -> b"}|};
        {|{"id":2,"verb":"revise","kb":"k","op":"dalal","p":"~b"}|};
        {|{"id":3,"verb":"revise","kb":"k","op":"dalal","p":"~b"}|};
      ]
    ^ "\n"
  in
  let n = String.length workload in
  if Unix.write_substring stdin_w workload 0 n <> n then
    fail "serve: short write feeding the workload";
  (* Reading all three replies guarantees the daemon answered them and
     is parked in [read] again — the idle signal path, where the flush
     handlers must run immediately. *)
  let replies = Unix.in_channel_of_descr stdout_r in
  for i = 1 to 3 do
    match input_line replies with
    | line ->
        if not (String.length line > 0 && line.[0] = '{') then
          fail "serve: reply %d is not a JSON object: %S" i line
    | exception End_of_file -> fail "serve: EOF before reply %d" i
  done;
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  Unix.close stdin_w;
  close_in replies;
  check_signaled status;
  check_trace trace;
  let t = read_all trace in
  if not (contains t "serve.request") then
    fail "serve: trace %s has no serve.request spans" trace;
  let m = check_metrics metrics in
  if not (contains m "revkb_serve_requests_total 3") then
    fail "serve: metrics %s is missing revkb_serve_requests_total 3" metrics;
  if not (contains m "revkb_serve_cache_hits_total 1") then
    fail "serve: metrics %s is missing revkb_serve_cache_hits_total 1" metrics;
  Sys.remove trace;
  Sys.remove metrics;
  print_endline
    "signal_kill: SIGTERM on an idle serve daemon flushed complete artifacts";

  (* -- a client that hangs up on serve --socket ------------------------- *)
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "revkb_sigpipe_%d.sock" (Unix.getpid ()))
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process revkb [| revkb; "serve"; "--socket"; sock |] null null
      null
  in
  Unix.close null;
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> Some fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if tries = 0 then None else (Unix.sleepf 0.05; connect (tries - 1))
  in
  let send fd line =
    let n = String.length line in
    if Unix.write_substring fd line 0 n <> n then fail "sigpipe: short write"
  in
  let rude =
    match connect 100 with
    | Some fd -> fd
    | None -> fail "sigpipe: no listener at %s" sock
  in
  let revise = {|{"verb":"revise","kb":"k","op":"dalal","p":"~b"}|} in
  send rude
    (String.concat "\n"
       ({|{"verb":"load","kb":"k","theory":"a; a -> b; c | ~b"}|}
       :: List.init 198 (fun _ -> revise))
    ^ "\n");
  Unix.close rude;
  let died what status =
    fail "sigpipe: %s; daemon %s" what
      (match status with
      | Unix.WSIGNALED s when s = Sys.sigpipe -> "died by SIGPIPE"
      | Unix.WSIGNALED s -> Printf.sprintf "died by signal %d" s
      | Unix.WEXITED c -> Printf.sprintf "exited %d" c
      | Unix.WSTOPPED _ -> "stopped")
  in
  let polite =
    match connect 0 with
    | Some fd -> fd
    | None -> died "connection refused" (snd (Unix.waitpid [] pid))
  in
  let ic = Unix.in_channel_of_descr polite in
  send polite "{\"verb\":\"stats\"}\n";
  (match input_line ic with
  | reply when contains reply {|"ok":true|} -> ()
  | reply -> fail "sigpipe: bad stats reply %S" reply
  | exception (End_of_file | Sys_error _) ->
      died "no stats reply" (snd (Unix.waitpid [] pid)));
  send polite "{\"verb\":\"shutdown\"}\n";
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, status -> died "after shutdown" status);
  print_endline "signal_kill: serve --socket survived a client that hung up"
