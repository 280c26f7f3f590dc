(* Renderers for Obs snapshots and trace buffers.  Three formats: a
   human table (the [--stats] output), JSON lines (one self-describing
   object per row, greppable and appendable), and the Chrome
   trace_event JSON array that about://tracing and Perfetto open
   directly.  The JSON primitives live here so every emitter in the
   repo escapes strings and rejects non-finite floats the same way. *)

(* -- JSON primitives -------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string s = "\"" ^ json_escape s ^ "\""

let json_float f =
  match Float.classify_float f with
  | FP_nan | FP_infinite ->
      invalid_arg
        (Printf.sprintf "Export.json_float: non-finite value (%h)" f)
  | _ -> Printf.sprintf "%.6g" f

let metric_float f =
  match Float.classify_float f with
  | FP_nan | FP_infinite ->
      invalid_arg
        (Printf.sprintf "Export.metric_float: non-finite value (%h)" f)
  | _ -> Printf.sprintf "%.9g" f

(* -- human table ------------------------------------------------------------ *)

let ms_of_us us = float_of_int us /. 1000.

let table (s : Obs.snapshot) =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (l ^ "\n")) fmt in
  let nonzero = List.filter (fun (_, v) -> v <> 0) s.counters in
  line "== counters ==";
  if nonzero = [] then line "  (none)"
  else List.iter (fun (n, v) -> line "  %-32s %12d" n v) nonzero;
  let hists = List.filter (fun (_, d) -> d.Obs.count > 0) s.hists in
  if hists <> [] then begin
    line "== histograms ==";
    List.iter
      (fun (n, (d : Obs.dist)) ->
        line "  %-32s count=%d sum=%d min=%d max=%d" n d.count d.sum d.min_v
          d.max_v)
      hists
  end;
  let spans = List.filter (fun (_, s) -> s.Obs.s_count > 0) s.spans in
  if spans <> [] then begin
    line "== spans ==";
    List.iter
      (fun (n, (st : Obs.span_stat)) ->
        let by_domain =
          match st.s_by_domain with
          | [] | [ _ ] -> "" (* one domain: the total already says it *)
          | ds ->
              "  ["
              ^ String.concat ", "
                  (List.map
                     (fun (d, us) -> Printf.sprintf "d%d: %.1fms" d (ms_of_us us))
                     ds)
              ^ "]"
        in
        line "  %-32s count=%-8d total=%.1fms min=%.1fms max=%.1fms%s" n
          st.s_count (ms_of_us st.s_total_us) (ms_of_us st.s_min_us)
          (ms_of_us st.s_max_us) by_domain)
      spans
  end;
  Buffer.contents buf

(* -- JSON lines ------------------------------------------------------------- *)

let metric_name n =
  let b = Bytes.of_string n in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> Bytes.set b i '_')
    b;
  "revkb_" ^ Bytes.to_string b

let openmetrics (s : Obs.snapshot) =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (l ^ "\n")) fmt in
  List.iter
    (fun (n, v) ->
      let m = metric_name n in
      line "# TYPE %s counter" m;
      line "%s_total %d" m v)
    s.counters;
  List.iter
    (fun (n, (d : Obs.dist)) ->
      let m = metric_name n in
      line "# TYPE %s histogram" m;
      let cum = ref 0 in
      List.iter
        (fun (lo, c) ->
          cum := !cum + c;
          let le = if lo <= 1 then 1 else (2 * lo) - 1 in
          line "%s_bucket{le=\"%d\"} %d" m le !cum)
        d.buckets;
      line "%s_bucket{le=\"+Inf\"} %d" m d.count;
      line "%s_sum %d" m d.sum;
      line "%s_count %d" m d.count)
    s.hists;
  List.iter
    (fun (n, (st : Obs.span_stat)) ->
      let m = metric_name n ^ "_seconds" in
      line "# TYPE %s summary" m;
      line "%s_count %d" m st.s_count;
      line "%s_sum %s" m
        (metric_float (float_of_int st.s_total_us /. 1e6)))
    s.spans;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* -- Chrome trace_event ----------------------------------------------------- *)

(* The JSON-array flavor of the trace_event format: complete ("X")
   events with microsecond timestamps relative to the earliest span,
   tid = recording domain, plus one metadata record naming each domain.
   Perfetto/about://tracing nest same-tid events by time containment,
   which [with_span]'s bracketing guarantees. *)
let chrome_trace events =
  let buf = Buffer.create 4096 in
  let t0 =
    List.fold_left
      (fun acc (e : Obs.event) -> min acc e.ev_start_us)
      max_int events
  in
  Buffer.add_string buf "[\n";
  let first = ref true in
  let obj fields =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf
      ("  {"
      ^ String.concat ", "
          (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
      ^ "}")
  in
  let domains =
    List.sort_uniq Int.compare
      (List.map (fun (e : Obs.event) -> e.ev_domain) events)
  in
  List.iter
    (fun d ->
      obj
        [
          ("name", json_string "thread_name");
          ("ph", json_string "M");
          ("pid", "1");
          ("tid", string_of_int d);
          ( "args",
            "{" ^ json_string "name" ^ ": "
            ^ json_string (Printf.sprintf "domain %d" d)
            ^ "}" );
        ])
    domains;
  List.iter
    (fun (e : Obs.event) ->
      let args =
        match e.ev_args with
        | [] -> []
        | kvs ->
            [
              ( "args",
                "{"
                ^ String.concat ", "
                    (List.map
                       (fun (k, v) -> json_string k ^ ": " ^ json_string v)
                       kvs)
                ^ "}" );
            ]
      in
      obj
        ([
           ("name", json_string e.ev_name);
           ("ph", json_string "X");
           ("pid", "1");
           ("tid", string_of_int e.ev_domain);
           ("ts", string_of_int (e.ev_start_us - t0));
           ("dur", string_of_int e.ev_dur_us);
         ]
        @ args))
    events;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf
