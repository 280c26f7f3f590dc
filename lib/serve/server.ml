(* The serving loop: newline-delimited JSON requests in, one JSON
   response line per request out.

   Performance architecture (the point of the tier):
   - each KB holds one [Kb.t] handle per epoch: T's satisfiability is
     decided once, by the first request that needs it, and read by
     every construction, check and measure after it;
   - plain queries and counts run on the entry's pooled session (T
     asserted once, accumulated learned clauses) or, when the KB has
     been compiled, on its ROBDD in diagram time;
   - revisions are answered from a bounded LRU keyed on
     (KB name, epoch, operator, normalized P) — an epoch bump on
     [update]/[load] changes every key of that KB, so invalidation is
     free and stale entries simply age out;
   - model-checking traffic against one (KB, operator, P) is fanned
     through [Check.model_check_batch], which hoists the per-(T, P)
     setup (k_{T,P}, Ω, Δ, CEGAR sessions) out of the per-candidate
     loop; the [batch] verb additionally groups its members so one
     setup serves many requests.

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
let c_batch_groups = Obs.counter "serve.batch.groups"
let c_drained = Obs.counter "serve.drained.lines"

(* A cached revision: the compact formula for T * P plus a lazily
   built session that asserts it once (clause conjuncts as clauses),
   so a repeated query against it encodes only the query. *)
type cached = { rf : Formula.t; mutable rsession : Session.t option }

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

let formula_of id req field =
  let s = need_str id req field in
  match Parser.formula_of_string s with
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
  Printf.sprintf "%s@%d|%s|%s" e.name e.epoch (MB.name op)
    (Formula.to_string pf)

(* Lookup-or-compute for T * P.  The epoch inside the key is the whole
   invalidation story: [update]/[load] bump it, so stale entries can
   never be found again and age out of the LRU. *)
let revised t (e : Registry.entry) op pf =
  let key = cache_key e op pf in
  match Lru.find t.cache key with
  | Some c ->
      t.hits <- t.hits + 1;
      Obs.incr c_hits;
      (c, true)
  | None ->
      t.misses <- t.misses + 1;
      Obs.incr c_misses;
      let rf =
        Obs.with_span "serve.revise"
          ~attrs:(fun () -> [ ("op", MB.name op) ])
          (fun () -> Compact.Construct.revise op e.kb pf)
      in
      let c = { rf; rsession = None } in
      Lru.add t.cache key c;
      (c, false)

let cached_session c =
  match c.rsession with
  | Some s -> s
  | None ->
      let s =
        Session.create ~vars:(Var.Set.elements (Formula.vars c.rf)) ()
      in
      Session.assert_always s c.rf;
      c.rsession <- Some s;
      s

(* -- verbs ----------------------------------------------------------------- *)

let do_load t id req =
  let name = need_str id req "kb" in
  let theory =
    let s = need_str id req "theory" in
    match Parser.theory_of_string s with
    | th -> th
    | exception Parser.Syntax_error d ->
        failf id "syntax_error" "field \"theory\": %s" d
  in
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
  let c, cached = revised t e op pf in
  Registry.commit e [ c.rf ];
  ok id
    [
      ("kb", Json.Str e.name);
      ("epoch", Json.Int e.epoch);
      ("size", Json.Int (Formula.size c.rf));
      ("cached", Json.Bool cached);
    ]

let do_revise t id req =
  let e = entry_of t id req in
  let op = op_of id req in
  let pf = formula_of id req "p" in
  let c, cached = revised t e op pf in
  let base =
    [
      ("kb", Json.Str e.name);
      ("epoch", Json.Int e.epoch);
      ("op", Json.Str (MB.name op));
      ("size", Json.Int (Formula.size c.rf));
      ("cached", Json.Bool cached);
    ]
  in
  let extra =
    if Json.bool_member "print" req = Some true then
      [ ("formula", Json.Str (Formula.to_string c.rf)) ]
    else []
  in
  ok id (base @ extra)

let do_query t id req =
  let e = entry_of t id req in
  let q = formula_of id req "q" in
  match Json.str_member "op" req with
  | None -> (
      (* Entailment by the raw KB: ROBDD route when compiled, pooled
         session otherwise. *)
      match Registry.compiled e with
      | Some c ->
          ok id
            [
              ("kb", Json.Str e.name);
              ("entails", Json.Bool (Semantics.Compiled.entails c q));
              ("route", Json.Str "bdd");
            ]
      | None ->
          let s = Registry.session e in
          ok id
            [
              ("kb", Json.Str e.name);
              ("entails", Json.Bool (Session.entails s q));
              ("route", Json.Str "session");
            ])
  | Some _ ->
      (* Entailment by the revised KB: T * P |= q through the cache. *)
      let op = op_of id req in
      let pf = formula_of id req "p" in
      let c, cached = revised t e op pf in
      let s = cached_session c in
      ok id
        [
          ("kb", Json.Str e.name);
          ("op", Json.Str (MB.name op));
          ("entails", Json.Bool (Session.entails s q));
          ("route", Json.Str "revised");
          ("cached", Json.Bool cached);
        ]

(* The candidates of a check request.  It only reads [req], so the
   batch path can parse a member and still hand it back whole. *)
let models_of id req =
  match Json.list_member "models" req with
  | None -> failf id "missing_field" "list field \"models\" is required"
  | Some l ->
      List.map
        (function
          | Json.Str s -> interp_of_string s
          | _ -> failf id "bad_request" "\"models\" must hold strings")
        l

let check_reply id (e : Registry.entry) op answers =
  ok id
    [
      ("kb", Json.Str e.name);
      ("op", Json.Str (MB.name op));
      ("results", Json.List (List.map (fun b -> Json.Bool b) answers));
    ]

let do_check t id req =
  let e = entry_of t id req in
  let op = op_of id req in
  let pf = formula_of id req "p" in
  check_reply id e op (Check.model_check_batch op e.kb pf (models_of id req))

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

let batchable = function
  | "revise" | "query" | "check" | "count" | "stats" -> true
  | _ -> false

(* Members of one batch that model-check the same (KB, epoch, op, P)
   are answered by ONE [Check.model_check_batch] call: their candidate
   lists are concatenated, the shared setup runs once, and the answer
   slices are dealt back to the member responses in request order. *)
let do_batch t handle_one id req =
  match Json.list_member "requests" req with
  | None -> failf id "missing_field" "list field \"requests\" is required"
  | Some members ->
      let arr = Array.of_list members in
      let responses = Array.make (Array.length arr) Json.Null in
      (* Pass 1: group the check members. *)
      let groups : (string, (int * Json.t) list ref) Hashtbl.t =
        Hashtbl.create 8
      in
      let order = ref [] in
      Array.iteri
        (fun i m ->
          if Json.str_member "verb" m = Some "check" then
            match
              ( Json.str_member "kb" m,
                Json.str_member "op" m,
                Json.str_member "p" m )
            with
            | Some kb, Some opname, Some p -> (
                let key = Printf.sprintf "%s|%s|%s" kb opname p in
                match Hashtbl.find_opt groups key with
                | Some cell -> cell := (i, m) :: !cell
                | None ->
                    Hashtbl.replace groups key (ref [ (i, m) ]);
                    order := key :: !order)
            | _ -> ())
        arr;
      let grouped = Hashtbl.create 8 in
      List.iter
        (fun key ->
          match Hashtbl.find_opt groups key with
          | Some cell when List.length !cell > 1 ->
              Obs.incr c_batch_groups;
              let members = List.rev !cell in
              (* One shared run; on any member error fall back to
                 per-member handling below. *)
              let shared () =
                let _, m0 = List.hd members in
                let id0 = Json.member "id" m0 in
                let e = entry_of t id0 m0 in
                let op = op_of id0 m0 in
                let pf = formula_of id0 m0 "p" in
                let parts =
                  List.map
                    (fun (i, m) ->
                      let mid = Json.member "id" m in
                      (i, mid, models_of mid m))
                    members
                in
                let all = List.concat_map (fun (_, _, ms) -> ms) parts in
                let answers =
                  Check.model_check_batch op e.kb pf all
                in
                let rest = ref answers in
                List.iter
                  (fun (i, mid, ms) ->
                    let k = List.length ms in
                    let mine = List.filteri (fun j _ -> j < k) !rest in
                    rest := List.filteri (fun j _ -> j >= k) !rest;
                    responses.(i) <- check_reply mid e op mine;
                    Hashtbl.replace grouped i ())
                  parts
              in
              (match shared () with
              | () -> ()
              | exception Reply _
              | exception Invalid_argument _
              | exception Check.Cegar_cap_exceeded _ ->
                  (* Roll back to individual handling so each member
                     gets its own structured error. *)
                  List.iter (fun (i, _) -> Hashtbl.remove grouped i) members)
          | _ -> ())
        (List.rev !order);
      (* Pass 2: everything not answered by a shared group. *)
      Array.iteri
        (fun i m ->
          if not (Hashtbl.mem grouped i) then begin
            let mid = Json.member "id" m in
            let resp =
              match Json.str_member "verb" m with
              | Some v when batchable v -> handle_one t m
              | Some v ->
                  error mid "not_batchable"
                    (Printf.sprintf "verb %S cannot appear inside a batch" v)
              | None -> error mid "missing_field" "field \"verb\" required"
            in
            responses.(i) <- resp
          end)
        arr;
      ok id [ ("responses", Json.List (Array.to_list responses)) ]

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
                  | "batch" -> do_batch t handle_in_batch id req
                  | "shutdown" -> do_shutdown t id req
                  | v -> error id "unknown_verb" (Printf.sprintf "%S" v))))
  | _ -> error id "bad_request" "a request must be a JSON object"

(* Batch members reuse the normal dispatcher (so they are counted and
   span-timed like top-level requests) but have already been screened
   for batchability. *)
and handle_in_batch t m = dispatch t m

(* Errors are counted from the reply that is sent, batch members
   included, so a member answered after its shared group rolled back
   counts once. *)
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
  match Json.parse line with
  | req -> Json.render (handle t req)
  | exception Json.Parse_error d ->
      t.requests <- t.requests + 1;
      Obs.incr c_requests;
      Json.render (sent t (error None "bad_json" d))

let stopping t = t.stopping

(* -- the loop -------------------------------------------------------------- *)

(* Line reader over a raw file descriptor.  Buffered by hand (not
   [in_channel]) because the drain path needs "read whatever is
   already available without blocking", which channels cannot
   express. *)
type reader = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : Bytes.t;
  mutable eof : bool;
}

let reader fd = { fd; buf = Buffer.create 4096; chunk = Bytes.create 4096; eof = false }

let take_line r =
  let s = Buffer.contents r.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      let line = String.sub s 0 i in
      Buffer.clear r.buf;
      Buffer.add_substring r.buf s (i + 1) (String.length s - i - 1);
      let line =
        if String.length line > 0 && line.[String.length line - 1] = '\r'
        then String.sub line 0 (String.length line - 1)
        else line
      in
      Some line

let rec refill r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> r.eof <- true
  | n -> Buffer.add_subbytes r.buf r.chunk 0 n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill r

let rec read_line r =
  match take_line r with
  | Some line -> Some line
  | None ->
      if r.eof then
        if Buffer.length r.buf > 0 then begin
          let line = Buffer.contents r.buf in
          Buffer.clear r.buf;
          Some line
        end
        else None
      else begin
        refill r;
        read_line r
      end

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
        if String.trim line <> "" then begin
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
        | Some line when String.trim line = "" -> loop ()
        | Some line ->
            Atomic.set t.busy true;
            send_line fd_out (handle_line t line);
            Atomic.set t.busy false;
            let signum = Atomic.exchange t.pending_signal 0 in
            if signum <> 0 then begin
              drain_queued r fd_out;
              Obs.flush_and_reraise signum
            end
            else if not t.stopping then loop ()
      in
      loop ())

(* Unix-socket front: one client at a time (request batching, not
   connection concurrency, is the parallelism story — the pool fans
   within a request).  SIGPIPE is ignored, so a client that hangs up
   costs only its own connection (EPIPE or ECONNRESET); a signal
   deferred while its last request ran is honoured then.  The listener
   stops once a [shutdown] verb has been served. *)
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
