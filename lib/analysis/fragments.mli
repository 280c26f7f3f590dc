(** Fragment classification: which tractable classes a formula {e
    syntactically} belongs to.

    Everything here is a one-pass structural check — no solver, no
    normal-form conversion — so membership is decided in linear time and
    a positive answer licenses the matching fast decision procedure
    ({!Logic.Clausal} for the clausal fragments, {!affine_sat} for XOR
    systems, constant-time endpoint evaluation for monotone/antitone
    formulas).  Membership is syntactic: an equivalent formula written
    differently may classify differently, which is the price of never
    enumerating models. *)

open Logic

type t = {
  cnf : bool;  (** syntactically a conjunction of clauses ({!Clausal.view}) *)
  horn : bool;  (** CNF, ≤ 1 positive literal per clause *)
  dual_horn : bool;  (** CNF, ≤ 1 negative literal per clause *)
  krom : bool;  (** CNF, ≤ 2 literals per clause *)
  affine : bool;  (** conjunction of XOR/IFF equations over literals *)
  monotone : bool;  (** all letter occurrences positive ({!Polarity}) *)
  antitone : bool;  (** all letter occurrences negative *)
  unate : bool;  (** every letter pure: all-positive or all-negative *)
}

val classify : Formula.t -> t

val pp : Format.formatter -> t -> unit
(** Comma-separated {!names}, or ["(none)"]. *)

(** {1 Affine systems} *)

val affine_equations : Formula.t -> (Var.Set.t * bool) list option
(** [Some eqs] when the formula is a conjunction of GF(2) equations
    (each built from letters, constants, [~], [==] and [!=] only); an
    equation [(s, b)] reads "the XOR of the letters of [s] equals [b]".
    [None] when any conjunct contains [&], [|] or [->]. *)

val affine_sat : (Var.Set.t * bool) list -> bool
(** Gaussian elimination over GF(2): is the equation system solvable?
    Polynomial (cubic worst case) — the Schaefer-tractable decision for
    the affine fragment. *)
