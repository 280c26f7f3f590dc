(** Clausal forms.

    Two routes from a formula to CNF: the equivalence-preserving
    distributive conversion (exponential; for small formulas and tests)
    and the Tseitin transformation (equisatisfiable, linear, introduces
    definition letters).  Clauses here are lists of [(sign, letter)]
    literals over formula letters — the bridge between {!Formula} and the
    DIMACS world of the CDCL solver. *)

type literal = bool * Var.t
(** [(true, x)] is [x]; [(false, x)] is [¬x]. *)

type clause = literal list
type t = clause list

val to_formula : t -> Formula.t

val of_formula_naive : Formula.t -> t
(** Distributive CNF: logically equivalent, worst-case exponential.
    Raises [Invalid_argument] past 100_000 clauses. *)

val tseitin : Formula.t -> t * Var.t list
(** [(clauses, defs)]: equisatisfiable CNF whose models, projected onto
    the original letters, are exactly the formula's models.  [defs] are
    the fresh definition letters. *)

val to_dimacs : t -> string
(** DIMACS text; variables are numbered by first occurrence. *)
