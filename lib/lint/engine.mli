(** Lint driver: tree walking, baselines, report rendering.

    The baseline workflow mirrors every incremental-adoption linter:
    [lint.baseline] holds the accepted findings as
    [rule<TAB>file<TAB>key] lines, the gate fails only on findings NOT
    in the baseline, and [--update-baseline] rewrites the file.  The
    repo ships an empty baseline: every real finding was either fixed
    or justified with an in-source allowlist comment. *)

type input = { path : string; content : string }

type result = {
  files_scanned : int;
  findings : Finding.t list;  (** sorted; survivors of allowlisting *)
  fresh : Finding.t list;  (** findings not covered by the baseline *)
  baselined : Finding.t list;
}

(* lint: iface-ok test_lint's rule fixtures run through it; run wraps it *)
val analyze : ?usage:input list -> input list -> Finding.t list
(** Pure core: lint the given sources (paths are labels only).  [usage]
    sources feed the constant table and the R5 usage index without
    being linted themselves.  Findings are sorted; allowlist
    suppression is applied. *)

val collect_tree :
  ?exts:string list -> string list -> (string * string) list
(** [collect_tree roots]: every file under the roots (files listed
    directly are taken as-is) with extension in [exts] (default
    [[".ml"; ".mli"]]), as [(path, content)] sorted by path.  [_build]
    and dot-directories are skipped.  Raises [Sys_error] on unreadable
    roots. *)

val baseline_line : Finding.t -> string
val run : ?usage:input list -> ?baseline:string -> input list -> result
(** {!analyze}, then split the findings against the baseline file's
    [rule, file, key] triples (comments and blank lines tolerated; an
    unreadable file is an empty baseline). *)

val render_table : result -> string
(** Human report: one row per finding (baselined rows marked), then a
    summary line. *)

val render_json : result -> string
(** One JSON object per line — findings, then a [summary] object —
    escaped via {!Revkb_obs.Export}. *)
