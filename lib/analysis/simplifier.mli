(** Sound formula simplification.

    {!simplify} and the individual rewrites it composes
    ({!constant_fold}, {!contract}, {!unit_propagate}, {!subsume})
    preserve {e logical equivalence} — the output has the same model set
    over every alphabet, so the size audit can report simplified sizes.
    Each rule is differentially tested against exhaustive model
    comparison on small alphabets ([test/test_analysis.ml]).

    Nothing here enumerates models: every rule is a structural pass, so
    simplification of the paper's compact constructions stays polynomial
    in their size. *)

open Logic

(* lint: iface-ok test_analysis checks each pass simplify runs *)
val constant_fold : Formula.t -> Formula.t
(** Rebuild the formula bottom-up through the smart constructors:
    constant laws, double negation, [And]/[Or] flattening.  (A formula
    that was built by the constructors is already folded; this matters
    after substitutions performed by other rules.) *)

(* lint: iface-ok test_analysis, as constant_fold *)
val contract : Formula.t -> Formula.t
(** Idempotence, complement and absorption inside [And]/[Or]:
    [a & a → a], [a & ~a → false], [a & (a | b) → a] and duals. *)

(* lint: iface-ok test_analysis, as constant_fold *)
val unit_propagate : Formula.t -> Formula.t
(** Boolean constraint propagation at every [And]/[Or] node: a literal
    conjunct is substituted into its siblings ([x & F ≡ x & F[x/true]]),
    dually for disjuncts.  Equivalence-preserving because the literal
    itself is kept. *)

(* lint: iface-ok test_analysis, as constant_fold *)
val subsume : Formula.t -> Formula.t
(** On syntactic CNF ({!Clausal.view}): drop duplicate and subsumed
    clauses (a clause implied by a subset clause).  Identity on
    non-CNF formulas. *)

val simplify : Formula.t -> Formula.t
(** The rules above iterated to a fixpoint (bounded; each rule never
    grows the formula, so termination is by size).  Preserves logical
    equivalence. *)
