(** The five lint rules over parsed source files.

    - {b R1 domain-safety}: module-level mutable state ([ref],
      [Hashtbl.create], [Buffer.create], [Array.make]/[init]/..., mutable
      record literals, array literals) not wrapped in [Atomic.make],
      [Mutex.create]/[Condition.create] or [Domain.DLS.new_key].  The
      multicore pool runs user closures on every domain, so any such cell
      is a data race unless an accessor protocol guards it — exemptions
      must say which one via [(* lint: domain-safe <reason> *)].
    - {b R2 shift-overflow}: [lsl]/[asr] whose amount is not statically
      [<= Sys.int_size - 2] and not dominated by a bound check (an
      [assert], a raising [if], a [for]-loop header) reachable on every
      path to the shift.  [1 lsl 62] is [min_int] on 64-bit: the PR 6 bug
      class.
    - {b R3 obs-contract}: every metric name passed to [Obs.counter],
      [Obs.hist] or [Obs.with_span] must be dotted lowercase with a
      registered namespace ([sat.], [sem.], [pool.], [enum.], [dist.],
      [check.], [models.], [verify.]); duplicate counter/hist
      registrations and counters that are registered but never touched
      again in their file are flagged.
    - {b R4 exception hygiene} (lib/ only): no catch-all
      [try ... with _] and no bare [Failure] ([failwith]) — failures must
      be declared exceptions carrying context fields.
    - {b R5 interface completeness}: every [lib/**/*.ml] has an [.mli],
      and every value an [.mli] declares is referenced from outside its
      own module: [unreachable:] when nothing in the scanned tree names
      it, [test-only:] when only files under [test/] do ([bin/],
      [bench/], [examples/] and [revbench/] are real callers). *)

type file = {
  path : string;  (** as given, forward slashes *)
  modname : string;  (** capitalized basename: ["lib/logic/var.ml"] -> ["Var"] *)
  text : string;
  allow : Allowlist.entry list;
  str : Parsetree.structure option;  (** [.ml] contents, when parsed *)
  sg : Parsetree.signature option;  (** [.mli] contents, when parsed *)
  parse_error : (int * string) option;
}

type global
(** Cross-file context: integer constants (for shift-bound evaluation),
    mutable record labels, the Obs registration table and the value
    usage index. *)

val load_file : path:string -> string -> file
(** Parse one source text ([.mli] when [path] ends in ".mli", [.ml]
    otherwise).  Parse failures land in [parse_error], not exceptions. *)

val prepare : lint:file list -> usage:file list -> global
(** Build the cross-file context.  [usage] files feed the constant and
    usage indexes only; [lint] files get findings. *)

val check_file : global -> file -> Finding.t list
(** R1, R2, R4 and the per-site half of R3 for one file.  Allowlist
    suppression is already applied. *)

val check_global : global -> Finding.t list
(** R3 duplicate registrations and R5, which need the whole tree. *)

val parse_findings : file -> Finding.t list
(** R0 findings: unparseable file, malformed [lint:] comments. *)

val stale_findings : file -> Finding.t list
(** R0 [stale:<tag>] findings: well-formed exemptions that suppressed
    nothing.  Run it after {!check_file} and {!check_global}, whose
    suppressions mark the entries used. *)
