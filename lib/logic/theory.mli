(** Theories: finite sets of propositional formulas (Section 2).

    Formula-based revision operators are sensitive to this presentation —
    [{a, b}] and [{a, a -> b}] revise differently — so a theory is kept as
    a list of formulas, not as their conjunction. *)

type t = Formula.t list

val conj : t -> Formula.t
(** The paper's [/\T]. *)

val vars : t -> Var.Set.t
val size : t -> int
(** Sum of the member formulas' sizes (variable occurrences). *)

val of_string : string -> t
(** Parse with {!Parser.theory_of_string}. *)

val pp : Format.formatter -> t -> unit
