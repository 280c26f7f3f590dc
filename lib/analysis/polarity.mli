(** Polarity (occurrence-sign) analysis.

    A letter occurs {e positively} when it sits under an even number of
    negations (counting the left side of [->] as one negation), and
    {e negatively} under an odd number; both sides of [==] and [!=] give
    every letter of the operands both polarities.  This is the syntactic
    notion behind unateness: a formula monotone (antitone) in a letter
    whenever the letter occurs only positively (only negatively).  The
    implication is one-directional — [a | ~a] is semantically monotone
    in [a] but not syntactically unate — which is exactly what a {e
    static} analyzer can promise. *)

open Logic

val is_monotone : Formula.t -> bool
(** Every occurrence of every letter is positive. *)

val is_antitone : Formula.t -> bool

val is_unate : Formula.t -> bool
(** Every letter is pure (all-positive or all-negative occurrences) —
    per-variable unateness for the whole alphabet. *)
