(* Wall-clock sampling profiler.

   [start] arms ITIMER_REAL; each SIGALRM handler invocation captures
   [Printexc.get_callstack] plus the innermost open span name into a
   preallocated ring buffer.  [stop] disarms the timer; [folded]
   collapses the ring into flamegraph.pl / speedscope "collapsed stack"
   lines (outermost frame first, semicolon-separated, space, count).

   Signal-safety invariants (see DESIGN.md §17):
   - the handler is OCaml-level (it runs at a safepoint, not as a raw C
     signal handler), so capturing a backtrace and bumping atomics is
     legal;
   - it runs at a safepoint of whichever domain polls first, which with
     pool workers alive is sometimes not the profiled one.  So it does
     no domain-local lookup: the span name comes from an
     [Obs.span_reader] that [start] binds to its own domain's buffer;
   - it still touches only the preallocated ring (two array stores, a
     cursor bump) and lock-free [Obs] cells — never the registry mutex,
     never a Hashtbl;
   - aggregation ([folded]/[write]) runs only after [stop] has disarmed
     the timer, so it never races the handler.

   The call stack is that of whichever domain the runtime picks to run
   the handler — in practice the main domain, which is where the
   engine's orchestration and the sequential hot paths live; the span
   name is always the profiled domain's.  Pool workers are profiled
   indirectly: the main domain's stack shows the batch it is
   coordinating (or helping with, via the caller-help loop). *)

let samples_c = Obs.counter "prof.samples"
let dropped_c = Obs.counter "prof.dropped"

let cap = 1 lsl 14
let max_frames = 64

(* lint: domain-safe the ring is written only by the SIGALRM handler
   (one domain, between start/stop) and read only after [stop] *)
let ring_bt : Printexc.raw_backtrace array =
  Array.make cap (Printexc.get_callstack 0)

(* lint: domain-safe single-writer ring, see ring_bt *)
let ring_span : string array = Array.make cap ""

(* lint: domain-safe written by the handler, read at quiescence *)
let cursor = ref 0

(* lint: domain-safe toggled by start/stop on the controlling domain *)
let running = ref false

(* lint: domain-safe set by [start] before the timer is armed; the
   handler only calls it *)
let span_of_profiled = ref (fun () -> None)

let handler _signum =
  if !running then begin
    (* One read of the cursor: two handlers on two domains can then at
       worst share a slot, never index past the ring. *)
    let i = !cursor in
    if i < cap then begin
      ring_bt.(i) <- Printexc.get_callstack max_frames;
      ring_span.(i) <-
        (match !span_of_profiled () with Some s -> s | None -> "");
      cursor := i + 1;
      Obs.incr samples_c
    end
    else Obs.incr dropped_c
  end

let set_timer seconds =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_value = seconds; it_interval = seconds })

let start ?(hz = 99) () =
  if !running then invalid_arg "Profile.start: profiler already running";
  if hz < 1 || hz > 1000 then
    invalid_arg
      (Printf.sprintf "Profile.start: hz=%d outside [1, 1000]" hz);
  cursor := 0;
  (* Bind this domain's span buffer here, in plain code: buffer
     creation takes the registry mutex, which the handler must never. *)
  span_of_profiled := Obs.span_reader ();
  running := true;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle handler);
  set_timer (1.0 /. float_of_int hz)

let stop () =
  if !running then begin
    set_timer 0.0;
    running := false
    (* The handler stays installed: a SIGALRM generated before the
       disarm can still be delivered after this point, and the default
       disposition would kill the process.  With [running] false the
       handler is a no-op, so a straggler is swallowed instead. *)
  end

let sample_count () = !cursor
let dropped () = Obs.value dropped_c

(* -- folding ---------------------------------------------------------------- *)

let frame_name slot =
  match Printexc.Slot.name slot with
  | Some n -> n
  | None -> (
      match Printexc.Slot.location slot with
      | Some l -> Printf.sprintf "%s:%d" l.Printexc.filename l.line_number
      | None -> "?")

(* The innermost frames of every sample are the profiler itself (the
   handler and the runtime's signal glue); they carry no information
   and would smear every flame tip, so they are trimmed. *)
let own_frame name =
  let has sub =
    let n = String.length name and m = String.length sub in
    let rec go i = i + m <= n && (String.sub name i m = sub || go (i + 1)) in
    go 0
  in
  has "Profile.handler" || has "Profile void handler"

let fold_sample bt span =
  let outermost_first =
    match Printexc.backtrace_slots bt with
    | None -> [ "[no debug info]" ]
    | Some slots ->
        (* slot 0 is innermost; drop the profiler's own frames there,
           then reverse so the root of the flame comes first. *)
        let names = Array.to_list (Array.map frame_name slots) in
        let rec trim = function
          | f :: rest when own_frame f -> trim rest
          | l -> l
        in
        List.rev (trim names)
  in
  let frames =
    match span with "" -> outermost_first | s -> ("[span] " ^ s) :: outermost_first
  in
  String.concat ";" frames

(* Collapsed (stack, count) pairs, by descending count then stack.
   Call after [stop]; a still-armed timer would race the ring. *)
let folded () =
  if !running then invalid_arg "Profile.folded: stop the profiler first";
  let tally : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to !cursor - 1 do
    let key = fold_sample ring_bt.(i) ring_span.(i) in
    match Hashtbl.find_opt tally key with
    | Some r -> incr r
    | None -> Hashtbl.add tally key (ref 1)
  done;
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tally []
  |> List.sort (fun (s1, c1) (s2, c2) ->
         match Int.compare c2 c1 with 0 -> String.compare s1 s2 | c -> c)

let write path =
  let stacks = folded () in
  let oc = open_out path in
  List.iter (fun (stack, n) -> Printf.fprintf oc "%s %d\n" stack n) stacks;
  close_out oc;
  stacks

(* REVKB_PROFILE=FILE (and optionally REVKB_PROFILE_HZ=N) profiles any
   revkb_obs-linked process — notably bench/main.exe, whose sections
   are the natural sweep workloads — without touching its CLI.  The
   writer runs from [at_exit] and from the fatal-signal flushers. *)
let start_from_env () =
  match Sys.getenv_opt "REVKB_PROFILE" with
  | None | Some "" -> ()
  | Some path ->
      let hz =
        match Sys.getenv_opt "REVKB_PROFILE_HZ" with
        | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 99)
        | None -> 99
      in
      start ~hz ();
      let written = ref false in
      let flush () =
        if not !written then begin
          written := true;
          stop ();
          let stacks = write path in
          Printf.eprintf "profile: %d sample(s), %d stack(s) -> %s\n%!"
            (sample_count ()) (List.length stacks) path
        end
      in
      at_exit flush;
      Obs.register_flusher flush
