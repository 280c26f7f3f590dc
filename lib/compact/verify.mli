(** Mechanical checks of the paper's two equivalence criteria.

    A compact construction claims either logical equivalence (criterion
    (2)) or query equivalence (criterion (1)) with the semantic revision.
    These checkers decide the claim on a concrete instance by comparing
    model sets — projected model sets for query equivalence, since
    criterion (1) permits new letters whose consequences over the original
    alphabet must nevertheless coincide. *)

open Logic

val logically_equivalent : Revision.Result.t -> Formula.t -> bool
(** The formula must mention only letters of the result's alphabet
    (otherwise it cannot be logically equivalent; returns [false]). *)

val query_equivalent : Revision.Result.t -> Formula.t -> bool
(** Projection of the formula's models onto the result's alphabet equals
    the result's model set (SAT-based enumeration with blocking
    clauses). *)

(* lint: iface-ok test_bdd holds it against query_equivalent; report runs it *)
val bdd_equivalent : Revision.Result.t -> Formula.t -> bool
(** The compiled oracle: the reference model set and the candidate are
    compiled into one BDD manager and compared by root — canonicity
    makes equivalence a pointer test.  Candidate letters outside the
    result's alphabet are existentially projected away first, so the
    verdict matches {!query_equivalent}'s projected criterion. *)

val report : Format.formatter -> Revision.Result.t -> Formula.t -> unit
(** Analyzer metrics for a compact candidate next to its equivalence
    verdicts: size block ({!Revkb_analysis.Metrics}), fragment labels,
    then [logically equivalent] / [query equivalent] / [bdd equivalent]
    against the semantic revision.  Drives [revkb compact --verify]. *)
