(** Lint findings: one defect at one source location.

    A finding is identified across runs by its {e baseline key}
    [(rule, file, key)] — [key] is derived from stable program text (a
    binding name, an Obs metric name, a rendered shift expression), not
    from line numbers, so unrelated edits above a finding do not turn a
    baselined entry into a "new" one. *)

type rule =
  | R0  (** lint hygiene: malformed allowlist comments, unparseable files *)
  | R1  (** domain-safety: unguarded module-level mutable state *)
  | R2  (** shift-overflow: [lsl]/[asr] amount not statically bounded *)
  | R3  (** obs-contract: metric namespace/duplicate/never-bumped *)
  | R4  (** exception hygiene: catch-all handlers, bare [Failure] *)
  | R5  (** interface completeness: missing [.mli], unreachable values *)

type severity = Error | Warning

type t = {
  rule : rule;
  severity : severity;
  file : string;  (** repo-relative path, forward slashes *)
  line : int;  (** 1-based; 0 when the finding is file-level *)
  col : int;
  key : string;  (** stable identity for baseline matching *)
  message : string;
}

val rule_id : rule -> string
(** ["R0"] .. ["R5"]. *)

val compare : t -> t -> int
(** Order by file, line, column, rule, key: the rendering order. *)

val to_json : ?baselined:bool -> t -> string
(** One JSON object (no trailing newline), naming the rule by id and
    by its kebab-case name (e.g. ["shift-overflow"]), escaped via
    {!Revkb_obs.Export} so every emitter in the repo escapes
    identically. *)

val to_table_row : t -> string
(** One aligned human-readable line: [RULE severity file:line message]. *)
