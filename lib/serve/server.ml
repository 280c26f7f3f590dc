(* The serving loop: newline-delimited JSON requests in, one JSON
   response line per request out.

   Performance architecture (the point of the tier):
   - each KB holds one [Kb.t] handle per epoch: T's satisfiability is
     decided once, by the first request that needs it, and read by
     every construction, check and measure after it, and T is
     Tseitin-encoded once, into a solver every measure and the pooled
     session start as a copy of;
   - plain queries and counts run on the entry's pooled session (T
     asserted once, learned clauses, a record of the models found) or,
     when the KB has been compiled, on its ROBDD in diagram time;
   - revisions are answered from a bounded LRU keyed on
     (KB name, epoch, operator, normalized P) — an epoch bump on
     [update]/[load] changes every key of that KB and drops the old
     epoch's entries, which no key reaches again.  Every entry holds one
     lazy measure of (T, P), for all six operators: a [check] asks its
     candidates on that measure's checker, an op+P [query] its entailment
     test (a recorded model of T * P refutes q, else one question on the
     session: a CEGAR loop for Winslett, Forbus and incompatible Borgida,
     one solve otherwise), and the compact formula is built (from the
     measure, for Dalal, Weber and Satoh) only when a
     [revise] or [update] needs its size or text.  So the per-(T, P)
     setup is paid once per entry, whichever verb comes first and
     however the requests are split: a [batch] dispatches each member,
     and the second [check] of a pair is a cache hit.

   Shutdown: the [shutdown] verb stops the loop after replying; a
   SIGTERM/SIGINT mid-request is deferred via [Obs.set_signal_deferral],
   the in-flight request completes and is answered, queued input lines
   get an {"error":"shutting_down"} reply, and only then do the
   registered flushers run and the process dies by the original
   signal. *)

open Logic
module MB = Revision.Model_based
module Obs = Revkb_obs.Obs
module Session = Semantics.Session
module Check = Compact.Check

let c_requests = Obs.counter "serve.requests"
let c_errors = Obs.counter "serve.errors"
let c_hits = Obs.counter "serve.cache.hits"
let c_misses = Obs.counter "serve.cache.misses"
let c_evictions = Obs.counter "serve.cache.evictions"
let c_drained = Obs.counter "serve.drained.lines"

(* A cached revision T * P, for any of the six operators: [ask]
   answers T * P |= q and [check] answers M |= T * P, both on the
   entry's one measure; [rf] is the compact formula, built from that
   measure for Dalal, Weber and Satoh and without it for the others. *)
type cached = {
  kb : Kb.t; (* the epoch's handle it was built on *)
  rf : Formula.t Lazy.t;
  ask : (Formula.t -> bool) Lazy.t;
  check : (Interp.t -> bool) Lazy.t;
}

type t = {
  registry : Registry.t;
  cache : (string, cached) Lru.t;
  mutable requests : int;
  mutable errors : int;
  mutable hits : int;
  mutable misses : int;
  mutable stopping : bool;
  busy : bool Atomic.t; (* a request is being handled right now *)
  pending_signal : int Atomic.t; (* deferred fatal signal; 0 = none *)
}

let create ?(cache_cap = 256) () =
  {
    registry = Registry.create ();
    cache = Lru.create ~on_evict:(fun _ _ -> Obs.incr c_evictions) cache_cap;
    requests = 0;
    errors = 0;
    hits = 0;
    misses = 0;
    stopping = false;
    busy = Atomic.make false;
    pending_signal = Atomic.make 0;
  }

let registry t = t.registry

(* -- responses ------------------------------------------------------------- *)

let id_fields id = match id with None -> [] | Some v -> [ ("id", v) ]

let ok id fields = Json.Obj (id_fields id @ (("ok", Json.Bool true) :: fields))

let error id code detail =
  Json.Obj
    (id_fields id
    @ [
        ("ok", Json.Bool false);
        ("error", Json.Str code);
        ("detail", Json.Str detail);
      ])

exception Reply of Json.t

let failf id code fmt =
  Printf.ksprintf (fun detail -> raise (Reply (error id code detail))) fmt

(* -- request parsing ------------------------------------------------------- *)

let need_str id req field =
  match Json.str_member field req with
  | Some s -> s
  | None -> failf id "missing_field" "string field %S is required" field

let entry_of t id req =
  let name = need_str id req "kb" in
  match Registry.find t.registry name with
  | Some e -> e
  | None -> failf id "unknown_kb" "no KB named %S is loaded" name

let op_of id req =
  let s = need_str id req "op" in
  match MB.of_name s with
  | Some op -> op
  | None ->
      failf id "unknown_op"
        "%S is not a model-based operator (expected one of %s)" s
        (String.concat ", " (List.map MB.name MB.all))

let parsed f = Obs.with_span "serve.parse" f
let rendered f = Obs.with_span "serve.render" f

let formula_of id req field =
  let s = need_str id req field in
  match parsed (fun () -> Parser.formula_of_string s) with
  | f -> f
  | exception Parser.Syntax_error d ->
      failf id "syntax_error" "field %S: %s" field d

(* A candidate model: the space-separated letters assigned true. *)
let interp_of_string s =
  Interp.of_list
    (List.filter_map
       (fun w -> if w = "" then None else Some (Var.named w))
       (String.split_on_char ' ' s))

(* -- the revision cache ---------------------------------------------------- *)

let cache_key (e : Registry.entry) op pf =
  String.concat ""
    [ e.name; "@"; string_of_int e.epoch; "|"; MB.name op; "|";
      Formula.to_string pf ]

let entry op kb pf =
  let m = lazy (Compact.Measure.create kb pf) in
  {
    kb;
    rf =
      lazy
        (Obs.with_span "serve.revise"
           ~attrs:(fun () -> [ ("op", MB.name op) ])
           (fun () -> Compact.Construct.revise ~measure:m op kb pf));
    ask = lazy (Check.entails op (Lazy.force m));
    check = lazy (Check.checker op (Lazy.force m));
  }

(* Lookup-or-compute for T * P.  A hit, a miss and a new entry count
   only once what the verb [needs] of it is built: a refused request is
   neither, and a refused revision is never cached. *)
let revised t (e : Registry.entry) op pf needs =
  let key = cache_key e op pf in
  match Lru.find t.cache key with
  | Some c ->
      needs c;
      t.hits <- t.hits + 1;
      Obs.incr c_hits;
      (c, true)
  | None ->
      let c = entry op e.kb pf in
      needs c;
      t.misses <- t.misses + 1;
      Obs.incr c_misses;
      Lru.add t.cache key c;
      (c, false)

(* Just before [e]'s epoch bump, after which no key reaches the cache
   entries built on its current handle. *)
let drop_epoch t (e : Registry.entry) =
  Lru.remove_if t.cache (fun _ c -> c.kb == e.kb)

let formula c = Lazy.force c.rf
let needs_formula c = ignore (formula c)
let needs_check c = ignore (Lazy.force c.check : Interp.t -> bool)

(* -- verbs ----------------------------------------------------------------- *)

let do_load t id req =
  let name = need_str id req "kb" in
  let theory =
    let s = need_str id req "theory" in
    match parsed (fun () -> Parser.theory_of_string s) with
    | th -> th
    | exception Parser.Syntax_error d ->
        failf id "syntax_error" "field \"theory\": %s" d
  in
  Option.iter (drop_epoch t) (Registry.find t.registry name);
  let e = Registry.load t.registry name theory in
  ok id
    [
      ("kb", Json.Str name);
      ("epoch", Json.Int e.epoch);
      ("letters", Json.Int (Var.Set.cardinal (Kb.vars e.kb)));
      ("members", Json.Int (List.length e.theory));
    ]

let do_update t id req =
  let e = entry_of t id req in
  let op = op_of id req in
  let pf = formula_of id req "p" in
  let c, cached = revised t e op pf needs_formula in
  drop_epoch t e;
  Registry.commit e [ formula c ];
  ok id
    [
      ("kb", Json.Str e.name);
      ("epoch", Json.Int e.epoch);
      ("size", Json.Int (Formula.size (formula c)));
      ("cached", Json.Bool cached);
    ]

let do_revise t id req =
  let e = entry_of t id req in
  let op = op_of id req in
  let pf = formula_of id req "p" in
  let c, cached = revised t e op pf needs_formula in
  let base =
    [
      ("kb", Json.Str e.name);
      ("epoch", Json.Int e.epoch);
      ("op", Json.Str (MB.name op));
      ("size", Json.Int (Formula.size (formula c)));
      ("cached", Json.Bool cached);
    ]
  in
  let extra =
    if Json.bool_member "print" req = Some true then
      let text = rendered (fun () -> Formula.to_string (formula c)) in
      [ ("formula", Json.Str text) ]
    else []
  in
  ok id (base @ extra)

let do_query t id req =
  let e = entry_of t id req in
  let q = formula_of id req "q" in
  match Json.str_member "op" req with
  | None ->
      (* Entailment by the raw KB: ROBDD route when compiled, pooled
         session otherwise. *)
      let entails, route =
        match Registry.compiled e with
        | Some c -> (Semantics.Compiled.entails c q, "bdd")
        | None -> (Registry.entails e q, "session")
      in
      ok id
        [
          ("kb", Json.Str e.name);
          ("entails", Json.Bool entails);
          ("route", Json.Str route);
        ]
  | Some _ ->
      (* Entailment by the revised KB: T * P |= q through the cache. *)
      let op = op_of id req in
      let pf = formula_of id req "p" in
      let needs_ask c = ignore (Lazy.force c.ask : Formula.t -> bool) in
      let c, cached = revised t e op pf needs_ask in
      ok id
        [
          ("kb", Json.Str e.name);
          ("op", Json.Str (MB.name op));
          ("entails", Json.Bool (Lazy.force c.ask q));
          ("route", Json.Str "revised");
          ("cached", Json.Bool cached);
        ]

let models_of id req =
  match Json.list_member "models" req with
  | None -> failf id "missing_field" "list field \"models\" is required"
  | Some l ->
      List.map
        (function
          | Json.Str s -> interp_of_string s
          | _ -> failf id "bad_request" "\"models\" must hold strings")
        l

(* M |= T * P for each candidate, on the entry's checker.  A check
   with no candidates touches neither the cache nor a solver. *)
let do_check t id req =
  let e = entry_of t id req in
  let op = op_of id req in
  let pf = formula_of id req "p" in
  let answers =
    match models_of id req with
    | [] -> []
    | ns ->
        Obs.with_span "check.batch"
          ~attrs:(fun () ->
            [ ("op", MB.name op);
              ("candidates", string_of_int (List.length ns)) ])
          (fun () ->
            let c, _ = revised t e op pf needs_check in
            List.map (Lazy.force c.check) ns)
  in
  ok id
    [
      ("kb", Json.Str e.name);
      ("op", Json.Str (MB.name op));
      ("results", Json.List (List.map (fun b -> Json.Bool b) answers));
    ]

let do_count t id req =
  let e = entry_of t id req in
  match Registry.compiled e with
  | Some c ->
      ok id
        [
          ("kb", Json.Str e.name);
          ("models", Json.Int (Semantics.Compiled.count c));
          ("route", Json.Str "bdd");
        ]
  | None ->
      (* The pooled session already asserts T: count under no premise. *)
      let s = Registry.session e in
      let alpha = Interp_packed.alphabet (Var.Set.elements (Kb.vars e.kb)) in
      let n = Session.count_masks s alpha [] in
      ok id
        [
          ("kb", Json.Str e.name);
          ("models", Json.Int n);
          ("route", Json.Str "session");
        ]

let do_compile t id req =
  let e = entry_of t id req in
  let c = Registry.compile e in
  ok id
    [
      ("kb", Json.Str e.name);
      ("nodes", Json.Int (Semantics.Compiled.size c));
      ("route", Json.Str "bdd");
    ]

let do_stats t id _req =
  ok id
    [
      ("kbs", Json.Int (Registry.size t.registry));
      ("requests", Json.Int t.requests);
      ("errors", Json.Int t.errors);
      ("cache_hits", Json.Int t.hits);
      ("cache_misses", Json.Int t.misses);
      ("cache_entries", Json.Int (Lru.length t.cache));
    ]

let do_shutdown t id _req =
  t.stopping <- true;
  ok id [ ("stopping", Json.Bool true) ]

(* -- dispatch -------------------------------------------------------------- *)

(* Static span names so the per-verb latency histograms pass the obs
   naming lint and aggregate under stable keys. *)
let span_of_verb = function
  | "load" -> "serve.request.load"
  | "update" -> "serve.request.update"
  | "revise" -> "serve.request.revise"
  | "query" -> "serve.request.query"
  | "check" -> "serve.request.check"
  | "count" -> "serve.request.count"
  | "compile" -> "serve.request.compile"
  | "stats" -> "serve.request.stats"
  | "batch" -> "serve.request.batch"
  | "shutdown" -> "serve.request.shutdown"
  | _ -> "serve.request.other"

(* Engine-level failures surfaced as structured protocol errors: the
   daemon must answer, not die, when a request is semantically bad. *)
let guarded id f =
  match f () with
  | resp -> resp
  | exception Reply resp -> resp
  | exception Invalid_argument d -> error id "invalid" d
  | exception Semantics.Enumeration_cap_exceeded { enumerator; cap } ->
      error id "cap_exceeded"
        (Printf.sprintf "%s exceeded its cap of %d models" enumerator cap)
  | exception Check.Cegar_cap_exceeded { cap; opname; nletters } ->
      error id "cap_exceeded"
        (Printf.sprintf
           "CEGAR cap %d exceeded (op=%s, %d-letter alphabet)" cap opname
           nletters)

(* Each member is dispatched as a top-level request is (counted and
   span-timed) once screened for batchability, so members that share a
   (KB, op, P) pair share its cache entry, as separate requests do. *)
let do_batch t dispatch id req =
  match Json.list_member "requests" req with
  | None -> failf id "missing_field" "list field \"requests\" is required"
  | Some members ->
      let answer m =
        let mid = Json.member "id" m in
        match Json.str_member "verb" m with
        | Some ("revise" | "query" | "check" | "count" | "stats") ->
            dispatch t m
        | Some v ->
            error mid "not_batchable"
              (Printf.sprintf "verb %S cannot appear inside a batch" v)
        | None -> error mid "missing_field" "field \"verb\" required"
      in
      ok id [ ("responses", Json.List (List.map answer members)) ]

let rec dispatch t req =
  t.requests <- t.requests + 1;
  Obs.incr c_requests;
  let id = Json.member "id" req in
  match req with
  | Json.Obj _ -> (
      match Json.str_member "verb" req with
      | None -> error id "missing_field" "field \"verb\" is required"
      | Some verb ->
          Obs.with_span (span_of_verb verb) (fun () ->
              guarded id (fun () ->
                  match verb with
                  | "load" -> do_load t id req
                  | "update" -> do_update t id req
                  | "revise" -> do_revise t id req
                  | "query" -> do_query t id req
                  | "check" -> do_check t id req
                  | "count" -> do_count t id req
                  | "compile" -> do_compile t id req
                  | "stats" -> do_stats t id req
                  | "batch" -> do_batch t dispatch id req
                  | "shutdown" -> do_shutdown t id req
                  | v -> error id "unknown_verb" (Printf.sprintf "%S" v))))
  | _ -> error id "bad_request" "a request must be a JSON object"

(* Errors are counted from the reply that is sent, batch members
   included. *)
let rec errors_in v =
  match (Json.bool_member "ok" v, Json.list_member "responses" v) with
  | Some false, _ -> 1
  | _, Some rs -> List.fold_left (fun n r -> n + errors_in r) 0 rs
  | _ -> 0

let sent t resp =
  let n = errors_in resp in
  t.errors <- t.errors + n;
  Obs.add c_errors n;
  resp

let handle t req = sent t (dispatch t req)

let handle_line t line =
  let render v = rendered (fun () -> Json.render v) in
  match parsed (fun () -> Json.parse line) with
  | req -> render (handle t req)
  | exception Json.Parse_error d ->
      t.requests <- t.requests + 1;
      Obs.incr c_requests;
      render (sent t (error None "bad_json" d))

let stopping t = t.stopping

(* -- the loop -------------------------------------------------------------- *)

(* Line reader over a raw file descriptor.  Buffered by hand (not
   [in_channel]) because the drain path needs "read whatever is
   already available without blocking", which channels cannot
   express.  A line of more than [max_line_bytes] bytes before its
   newline (a CR included) is [Too_large]: the reader says so as soon
   as its buffer holds that many bytes with no newline, frees the
   buffer, and drops every byte up to the next newline as it arrives,
   so one client line holds at most [max_line_bytes] plus one read. *)
let max_line_bytes = 16 * 1024 * 1024

type line = Line of string | Too_large

let blank = function Line l -> String.trim l = "" | Too_large -> false

type reader = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : Bytes.t;
  mutable scanned : int;  (** bytes of [buf] known to hold no newline *)
  mutable eof : bool;
  mutable dropping : bool;  (** inside a [Too_large] line *)
}

let reader fd =
  {
    fd;
    buf = Buffer.create 4096;
    chunk = Bytes.create 4096;
    scanned = 0;
    eof = false;
    dropping = false;
  }

(* Keep what follows the newline at [i]. *)
let consume r i =
  let n = Buffer.length r.buf in
  let rest = Buffer.sub r.buf (i + 1) (n - i - 1) in
  Buffer.clear r.buf;
  Buffer.add_string r.buf rest;
  r.scanned <- 0

(* Each byte is searched once, so a line of L bytes costs O(L) however
   many reads it spans. *)
let rec take_line r =
  let n = Buffer.length r.buf in
  let rec newline i =
    if i = n then None else if Buffer.nth r.buf i = '\n' then Some i else newline (i + 1)
  in
  match newline r.scanned with
  | None when r.dropping ->
      Buffer.clear r.buf;
      r.scanned <- 0;
      None
  | None when n > max_line_bytes ->
      Buffer.reset r.buf;
      r.scanned <- 0;
      r.dropping <- true;
      Some Too_large
  | None ->
      r.scanned <- n;
      None
  | Some i when r.dropping ->
      consume r i;
      r.dropping <- false;
      take_line r
  | Some i when i > max_line_bytes ->
      consume r i;
      Some Too_large
  | Some i ->
      let len = if i > 0 && Buffer.nth r.buf (i - 1) = '\r' then i - 1 else i in
      let line = Buffer.sub r.buf 0 len in
      consume r i;
      Some (Line line)

let rec refill r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> r.eof <- true
  | n -> Buffer.add_subbytes r.buf r.chunk 0 n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill r

(* At end of input, bytes after the last newline are a final line,
   unless they end a [Too_large] one. *)
let rec read_line r =
  match take_line r with
  | Some line -> Some line
  | None ->
      if r.eof then
        if Buffer.length r.buf > 0 && not r.dropping then begin
          let line = Buffer.contents r.buf in
          Buffer.clear r.buf;
          r.scanned <- 0;
          Some (Line line)
        end
        else None
      else begin
        refill r;
        read_line r
      end

(* The one reply to a line past [max_line_bytes], counted as a request
   and an error like a line that does not parse. *)
let too_large_line t =
  t.requests <- t.requests + 1;
  Obs.incr c_requests;
  Json.render
    (sent t
       (error None "too_large"
          (Printf.sprintf "request line longer than %d bytes; dropped"
             max_line_bytes)))

let readable_now fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | [ _ ], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let shutting_down_line =
  Json.render
    (Json.Obj
       [
         ("ok", Json.Bool false);
         ("error", Json.Str "shutting_down");
         ("detail", Json.Str "server is draining; request not processed");
       ])

(* Replies go out through [Unix.single_write], not an out_channel, so a
   client that has hung up surfaces as [Unix_error (EPIPE, _, _)]. *)
let send_line fd s =
  let s = s ^ "\n" in
  let rec go off =
    if off < String.length s then
      match Unix.single_write_substring fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Drain: answer every complete request line that is already buffered
   or immediately readable with a shutting_down error, so clients that
   pipelined requests behind the one in flight see a definite refusal
   instead of a dropped connection. *)
let drain_queued r fd_out =
  let rec go () =
    match take_line r with
    | Some line ->
        if not (blank line) then begin
          Obs.incr c_drained;
          send_line fd_out shutting_down_line
        end;
        go ()
    | None ->
        if (not r.eof) && readable_now r.fd then begin
          refill r;
          (* Only recurse if the refill produced a complete line;
             otherwise the remaining bytes are a partial request we
             cannot answer. *)
          if Buffer.length r.buf > 0 then go ()
        end
  in
  go ()

(* One connection: read a line, handle it busy-flagged, reply, then
   honour any signal deferred while we were busy.  The deferral
   predicate only defers while [busy] is set — a signal landing while
   the loop is parked in [read] takes the immediate flush-and-die
   path, artifacts intact.  However the loop ends, [busy] is cleared:
   a flag left set would defer every later signal for good. *)
let serve_fd t fd_in fd_out =
  let r = reader fd_in in
  Obs.set_signal_deferral
    (Some
       (fun signum ->
         if Atomic.get t.busy then begin
           Atomic.set t.pending_signal signum;
           true
         end
         else false));
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.busy false;
      Obs.set_signal_deferral None)
    (fun () ->
      let rec loop () =
        match read_line r with
        | None -> ()
        | Some line when blank line -> loop ()
        | Some line ->
            Atomic.set t.busy true;
            send_line fd_out
              (match line with
              | Line l -> handle_line t l
              | Too_large -> too_large_line t);
            Atomic.set t.busy false;
            let signum = Atomic.exchange t.pending_signal 0 in
            if signum <> 0 then begin
              drain_queued r fd_out;
              Obs.flush_and_reraise signum
            end
            else if not t.stopping then loop ()
      in
      loop ())

(* Unix-socket front: one client at a time.  SIGPIPE is ignored, so a
   client that hangs up costs only its own connection (EPIPE or
   ECONNRESET); a signal deferred while its last request ran is
   honoured then.  The listener stops once a [shutdown] verb has been
   served. *)
let serve_socket t path =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close sock;
      match Unix.unlink path with
      | () -> ()
      | exception Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        if not t.stopping then begin
          match Unix.accept sock with
          | client, _ ->
              (match
                 Fun.protect
                   ~finally:(fun () -> Unix.close client)
                   (fun () -> serve_fd t client client)
               with
              | () -> ()
              | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
                ->
                  let signum = Atomic.exchange t.pending_signal 0 in
                  if signum <> 0 then Obs.flush_and_reraise signum);
              accept_loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
        end
      in
      accept_loop ())
