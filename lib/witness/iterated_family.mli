(** The Theorem 6.5 witness family: a sequence of [n] constant-size
    revisions simulates one unbounded revision, so no model-based operator
    is logically compactable under iterated bounded revision.

    Over [L = B_n ∪ Y ∪ C]:

    - [Γ_n = ∧_j (c_j → γ_j)], [Φ_n = ∧_i (b_i ≢ y_i)],
    - [T_n = Φ_n ∧ Γ_n],
    - [Pⁱ = ¬b_i ∧ ¬y_i] for [i = 1..n] (each of constant size),
    - [C_π = {c_j | γ_j ∈ π}].

    Theorem 6.5: the model sets of [T_n * P¹ * ... * Pⁿ] coincide for all
    six model-based operators, and [π] is satisfiable iff [C_π] is one of
    those models. *)

open Logic

type t = {
  universe : Threesat.universe;
  y : Var.t list;
  c : Var.t list;
  t_n : Formula.t;
  ps : Formula.t list;
}

val make : Threesat.universe -> t
val alphabet : t -> Var.t list

val reduction_holds : Revision.Model_based.op -> t -> Threesat.instance -> bool

val operators_agree : t -> bool
(** Do all six operators produce the same model set on this family?
    (Asserted inside the proof of Theorem 6.5.) *)
