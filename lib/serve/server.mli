(** The [revkb serve] request loop.

    Newline-delimited JSON: one request object per line, one response
    line per request, members rendered in a fixed order so scripted
    sessions are byte-stable.  Verbs: [load], [update], [revise],
    [query], [check], [count], [compile], [stats], [batch],
    [shutdown]; every response carries ["ok"] and echoes the request's
    ["id"] member when present.  Errors are structured
    [{"ok":false,"error":code,"detail":...}] lines — a malformed or
    semantically bad request never kills the daemon.

    Performance tiers per KB: a pooled incremental session (encode
    once, query many), an optional compiled ROBDD, and a bounded LRU
    over (name, epoch, operator, P) for revision results — epoch bumps
    invalidate by construction.  One entry answers [revise], op+P
    [query] and [check] alike, on one {!Compact.Measure} of the pair;
    a [batch] dispatches each member, so its checks of one pair share
    that entry.

    Counters: [serve.requests] (batch members included),
    [serve.errors], [serve.cache.hits] / [serve.cache.misses] /
    [serve.cache.evictions], [serve.session.builds] /
    [serve.session.reuse], [serve.epoch.bumps],
    [serve.drained.lines]; per-verb latency under the
    [serve.request.*] spans, one [check.batch] span per checking
    [check]. *)

type t

val create : ?cache_cap:int -> unit -> t
(** A fresh server: empty registry, empty revision cache (default
    capacity 256 entries). *)

(* lint: iface-ok test_serve inspects the registry behind the verbs *)
val registry : t -> Registry.t

(* lint: iface-ok test_serve drives requests in process; handle_line runs it *)
val handle : t -> Json.t -> Json.t
(** Answer one parsed request (the in-process entry point the tests
    drive). *)

val handle_line : t -> string -> string
(** Parse, dispatch, render: one request line to one response line
    (neither carries the newline).  Unparsable input yields the
    structured [bad_json] error line. *)

(* lint: iface-ok test_serve checks the shutdown verb sets it *)
val stopping : t -> bool
(** Set once a [shutdown] verb has been served. *)

(* lint: iface-ok test_serve sends lines either side of it *)
val max_line_bytes : int
(** The longest request line {!serve_fd} reads: more bytes than this
    before a newline (a CR included) get one
    [{"error":"too_large"}] reply, and the reader drops them up to the
    next newline without keeping them, then serves the next line. *)

val serve_fd : t -> Unix.file_descr -> Unix.file_descr -> unit
(** Serve one connection (or stdin/stdout) until EOF or [shutdown].
    While a request is in flight, SIGTERM/SIGINT is deferred
    ({!Revkb_obs.Obs.set_signal_deferral}): the request completes and
    is answered, already-queued request lines are each refused with an
    [{"error":"shutting_down"}] line, and then the flushers run and
    the process dies by the original signal.  A signal arriving while
    the loop is idle takes the immediate flush-and-die path. *)

val serve_socket : t -> string -> unit
(** Bind a Unix domain socket at the path (replacing a stale socket
    file), then accept and {!serve_fd} one client at a time until a
    [shutdown] verb is served.  The socket file is removed on exit.
    Ignores SIGPIPE for the process: a client that hangs up before its
    replies are written (EPIPE, ECONNRESET) ends only its own
    connection, and the loop goes back to [accept]. *)
