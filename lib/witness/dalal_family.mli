(** The Theorem 3.6 witness family: Dalal's and Weber's operators are not
    {e logically} compactable (although query-compactable, Theorems
    3.4/3.5 — the asymmetry that makes these two operators interesting).

    Over [L = B_n ∪ Y ∪ C] with [Y] one-to-one with [B_n] and [C]
    one-to-one with a clause universe [U]:

    - [Φ_n = ∧_i (b_i ≢ y_i)],
    - [Γ_n = ∧_j (γ_j ∨ ¬c_j)] (clauses enabled by guards),
    - [T_n = Φ_n ∧ Γ_n],
    - [P_n = ∧_i (¬b_i ∧ ¬y_i)],
    - [C_π = {c_j | γ_j ∈ π}].

    Theorem 3.6: [π] satisfiable iff [C_π |= T_n *_D P_n] iff
    [C_π |= T_n *_Web P_n].  Because the reduction is from model checking
    (not inference), compact {e logically equivalent} representations
    would put an NP-complete problem in P/poly. *)

open Logic

type t = {
  universe : Threesat.universe;
  y : Var.t list;
  c : Var.t list;
  phi_n : Formula.t;
  gamma_n : Formula.t;
  t_n : Formula.t;
  p_n : Formula.t;
}

val make : Threesat.universe -> t
val alphabet : t -> Var.t list

val reduction_holds : Revision.Model_based.op -> t -> Threesat.instance -> bool
(** Does [C_π |= T_n * P_n], by brute-force semantic revision (small
    universes only), agree with [π]'s satisfiability?  For [Dalal] or
    [Weber]. *)

val reduction_holds_sat :
  Revision.Model_based.op -> t -> Threesat.instance -> bool
(** The same check via {!Compact.Check} — scales past enumeration. *)
