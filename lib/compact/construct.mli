(** The query-equivalent constructions of Sections 3, 5 and 6: one step
    per model-based operator, and one fold over it.

    A step turns the accumulated formula [φ] (query-equivalent to
    [T * P¹ * ... * P^{i-1}]) and the next formula [P] into one that is
    query-equivalent to [φ * P]: it renames some letters of [φ] to a
    fresh copy and conjoins [P] with the operator's distance constraint.
    A single revision is the first step of its iteration, so Theorem
    3.4's [T'] is Theorem 5.1's [Φ₁], Theorem 3.5's [T[Ω/Z] ∧ P] is
    formula (10)'s [Ψ₁], and formula (12) is [WIN₁] of formula (16).

    - {b Dalal} (Theorem 3.4 / 5.1): [φ[V(P)/Y] ∧ P ∧ EXA(k, V(P), Y, W)],
      [k] from {!Measure.k}: over [V(P)], not the paper's joint
      alphabet, by Proposition 2.1 (DESIGN.md §8).  Not logically
      equivalent: it constrains the new letters [Y ∪ W] (Theorem 3.6).
    - {b Weber} (Theorem 3.5 / formula (10)): [φ[Ω/Z] ∧ P], [Ω] from
      {!Measure.omega}.
    - {b Winslett} (formulas (12), (15), (16)): the expansion of
      {!winslett_qbf}.
    - {b Forbus} (formula (14)): [φ[V(P)/Y] ∧ P ∧ ∀Z (F_P(Z) → ¬(Z
      closer to Y than V(P)))], the comparison written directly with
      {!Logic.Hamming.dist_lt_direct}, then expanded.
    - {b Borgida}: [φ ∧ P] when consistent, Winslett's step otherwise.
    - {b Satoh}: the δ-guard step
      [φ[V(P)/Y] ∧ P ∧ ∨_{S ∈ δ(φ,P)} (Δ(V(P), Y) = S)], [δ] from
      {!Measure.delta}.  The paper's formula (13) is unsound as printed
      (DESIGN.md §8, erratum E1): it lets the alternative [T]-model vary
      only on a copy of [V(P)].

    Each step's fresh letters avoid [V(φ)] and the letters of [T] and
    of every [Pⁱ], so a later [Pⁱ] never names one of them.  Dalal
    and Weber grow by [O(|V(Pⁱ)|² + |Pⁱ|)] and [O(|Ω_i| + |Pⁱ|)] per step
    (Table 2's general YES entries); the pointwise steps by
    [O(2^{|V(Pⁱ)|} + |Pⁱ|)], polynomial for bounded [Pⁱ] (Corollary 6.4).

    Guards: [T] comes as a {!Logic.Kb} handle, whose satisfiability is
    decided at most once however many revisions read it.  Dalal, Weber
    and Satoh take [φ]'s decision through their {!Measure} and decide
    [P] with its one solve.  Winslett, Forbus and Borgida measure
    nothing: they consult [T]'s handle, and give each [P] one check
    (Borgida's fallback to Winslett checks it again).  Every failure raises
    [Invalid_argument], as does a [P] with more than 8 letters for the
    three expanding operators, Winslett, Forbus and Borgida (their
    expansion is exponential in [|V(P)|]).  Weber and Satoh take any
    [|V(P)|]: their Ω and δ come from {!Measure.delta}, a walk over
    the members of δ; Satoh's formula grows with [|δ|]. *)

open Logic

type step = {
  formula : Formula.t;  (** query-equivalent to [T * P¹ * ... * Pⁱ] *)
  measure : int;
      (** [k_i] for Dalal, [|Ω_i|] for Weber, [|δ_i|] for Satoh, [0] for
          the operators that measure nothing *)
  size : int;  (** [Formula.size formula] *)
}

val iterate : Revision.Model_based.op -> Kb.t -> Formula.t list -> step list
(** [iterate op kb ps]: the step for each prefix of [ps], in order.
    Empty, and nothing is checked, when [ps] is. *)

val final : Formula.t -> step list -> Formula.t
(** [final t steps]: the last step's formula, [t] when there is none. *)

val revise :
  ?measure:Measure.t Lazy.t ->
  Revision.Model_based.op ->
  Kb.t ->
  Formula.t ->
  Formula.t
(** [T * P]: [final (Kb.formula kb) (iterate op kb [p])].  Dalal, Weber
    and Satoh force [measure], a lazy [Measure.create kb p], when one
    is given; Winslett, Forbus and Borgida never force it. *)

(** {1 Unexpanded QBF views}

    The quantified representations are polynomial even for unbounded
    [|V(P)|]; only the Theorem 6.3 expansion costs [2^{|V(P)|}].  These
    views stop before it, so the bench can measure where the exponential
    enters.  Neither checks its input. *)

val winslett_qbf : Formula.t -> Formula.t -> Qbf.t
(** Formula (12) with its [∀Z] block intact. *)

val forbus_qbf : Formula.t -> Formula.t -> Qbf.t
(** Formula (14) with a polynomial [DIST < DIST] matrix
    ({!Logic.Hamming.dist_lt}) and its [∀Z] block intact. *)
