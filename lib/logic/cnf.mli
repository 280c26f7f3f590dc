(** Clausal forms: clauses as lists of [(sign, letter)] literals over
    formula letters, the shape {!Clausal}'s fast-path deciders and
    {!Horn}'s least upper bounds work on.  The CDCL solver's own CNF is
    {!Semantics}' Tseitin encoder. *)

type literal = bool * Var.t
(** [(true, x)] is [x]; [(false, x)] is [¬x]. *)

type clause = literal list
type t = clause list
