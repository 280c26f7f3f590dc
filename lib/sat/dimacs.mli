(** DIMACS CNF reading.

    Used by the CLI tools and by tests that cross-check the solver against
    hand-written instances. *)

exception Parse_error of { line : int; msg : string }
(** Malformed input, with the 1-based line number of the offending
    line — the clean-error contract of [revkb sat]: the CLI turns this
    into a message, never a backtrace. *)

(* lint: iface-ok test_sat's parse and error cases feed it text *)
val parse_string : string -> int * Lit.t list list
(** [parse_string s] parses DIMACS CNF text and returns
    [(nvars, clauses)].  [nvars] is the maximum of the header's declared
    variable count and the largest variable actually mentioned, so
    declared-but-unused variables still count.  Raises {!Parse_error} on
    malformed input. *)

val parse_file : string -> int * Lit.t list list

val load : Solver.t -> Lit.t list list -> unit
(** Add all clauses to a solver. *)
