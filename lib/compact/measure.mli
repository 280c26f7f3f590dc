(** The "measures of minimal distance" (Section 4.3's two-step scheme):
    [k_{T,P}], [δ(T,P)] and [Ω], computed with SAT probes instead of model
    enumeration, on the one session every question about a pair
    [(T, P)] is asked on.

    By Proposition 2.1 every inclusion- or cardinality-minimal difference
    between a model of [T] and a model of [P] is contained in [V(P)], so
    one session holding [T ∧ P[V(P)/Y]] ([T] on its own letters, [P] on
    a copy [Y] of [V(P)], the letters outside [V(P)] read by [T] alone)
    with one difference literal [d_x ↔ (x ⊕ y_x)] per letter [x] of
    [V(P)] answers all three:

    - [k_{T,P}] is the least threshold of a cardinality ladder over the
      difference literals: [k + 1] assumption flips, at any [|V(P)|];
    - [δ(T,P)] is the complements of the maximal sets of agreements
      [¬d_x] the session satisfies ({!Semantics.Session.maximal_subsets})
      and [Ω] their union: at most [|V(P)| + 1] solves per member of
      [δ], at any [|V(P)|]; Satoh's formula (7) pays for [|δ|] itself.

    Under one more constraint on the difference literals the session
    is the revision itself for Dalal, Weber and Satoh ({!consistent}):
    [EXA(k)] (Theorem 3.4), [T[Ω/Z] ∧ P] (Theorem 3.5) and δ
    (formula (7)) each constrain only where [T] and [P] differ.

    A value of {!t} is the one owner of its [(T, P)] pair: building it
    copies the solver of its {!Logic.Kb} handle, in which [T] is
    encoded once, asserts only [P[V(P)/Y]] and the difference literals,
    decides that [P] is satisfiable (the copy's one solve) and takes
    [T]'s decision from the handle, and each measure is
    computed at most once, on first use.  The session, the copies, the
    difference literals and the ladder are exported for {!Check}'s
    witness loop: pinning [V(P)] to a witness makes the difference
    literals spell out its difference with the P-model on the copies.
    A value is not domain-safe: build one per domain. *)

open Logic

type t

val create : Kb.t -> Formula.t -> t
(** [create kb p]: a copy of the handle's solver ({!Logic.Kb.session},
    built on first use) with [p] asserted on the copies, and [p]
    decided with one solve.  [T] takes the handle's decision, and an
    unsatisfiable [T] known beforehand raises before anything is built
    or copied.  Raises [Invalid_argument] when [T] or [p] is
    unsatisfiable (the paper's standing assumption; [T] is named when
    both are). *)

val kb : t -> Kb.t
(** The [T] handle the pair was built on. *)

val p : t -> Formula.t
(** The revising formula [P]. *)

val session : t -> Semantics.Session.t
(** The session holding [T ∧ P[V(P)/Y]] and the difference literals.
    A caller may add retractable scopes and ask queries; it must assert
    nothing permanent. *)

val copies : t -> Var.t list
(** [Y]: one fresh letter per letter of [V(P)], in
    [Var.Set.elements (Formula.vars p)] order. *)

val diff_lits : t -> Satsolver.Lit.t list
(** [d_x ↔ (x ⊕ y_x)] for each letter [x] of [V(P)], in the order of
    {!copies}. *)

val ladder : t -> Semantics.Ladder.t
(** The cardinality ladder over {!diff_lits}, built on first use. *)

val compatible : t -> bool
(** Is [T ∧ P] satisfiable?  One solve with every difference literal
    off, on first use: the decision Borgida's revision turns on, shared
    by its membership and entailment tests ({!Check}). *)

val k : t -> int
(** [k_{T,P}]: the minimum Hamming distance between a model of [T] and
    a model of [P] over their joint alphabet. *)

val delta : t -> Var.Set.t list
(** [δ(T, P)]: the inclusion-minimal realizable differences, in
    [Var.Set.compare] order. *)

val omega : t -> Var.Set.t
(** [Ω = ∪ δ(T, P)]. *)

val consistent :
  t ->
  Revision.Model_based.op ->
  Satsolver.Lit.t list ->
  Formula.t list ->
  bool
(** [consistent m op extra fs]: for Dalal, Weber and Satoh, does
    [T * P], [V(P)] read on {!copies}, have a model consistent with
    the assumption literals [extra] and the formulas [fs]?  Dalal is
    one ladder probe at [k] ([sem.ladder.probes]), Weber one solve
    with the differences outside [Ω] off, Satoh one solve per
    [S ∈ δ].  {!Check} asks its membership and entailment tests
    through it.  Raises [Invalid_argument] for Winslett, Forbus and
    Borgida, whose revisions are not of this shape. *)

val on_copies : t -> Formula.t -> Formula.t
(** [on_copies m q]: [q] read on the session's model pairs: its letters
    of [V(P)] renamed onto {!copies}, and its letters outside
    [V(T) ∪ V(P)] that name a copy renamed apart ({!Names.free}), so
    they stay free. *)
