(** The Theorem 3.1 witness family for GFUV non-query-compactability,
    and its Theorem 4.1 bounded-[P] lift.

    For a clause universe [U] over [B_n] with guard letters [C], [D]
    one-to-one with [U] and a fresh letter [r]:

    - [T_n = C ∪ D ∪ B_n ∪ {r}] (a theory of atoms),
    - [P_n = ((∧_i ¬b_i ∧ ¬r) ∨ ∧_j (c_j → γ_j)) ∧ ∧_j (c_j ≢ d_j)],
    - for an instance [π ⊆ U]:
      [W_π = {c_j | γ_j ∈ π} ∪ {d_j | γ_j ∉ π}] and [Q_π = ∧W_π → r].

    Theorem 3.1: [π] is satisfiable iff [T_n *_GFUV P_n |= Q_π].  The
    same [T_n, P_n] drive the Satoh / Winslett / Weber non-compactability
    of Theorem 3.2 (Eiter-Gottlob: on a maximal consistent set of literals
    with [V(P) ⊆ V(T)], GFUV, Satoh, Winslett and Weber inference
    coincide).

    Theorem 4.1 lift: [T'_n = {f ∧ (¬s ∨ P_n) | f ∈ T_n} ∪ {¬s}],
    [P' = s] — a constant-size revising formula with the same
    entailments, showing GFUV stays uncompactable in the bounded case. *)

open Logic

type t = {
  universe : Threesat.universe;
  c : Var.t list;  (** guards [c_j], one per universe clause *)
  d : Var.t list;  (** guards [d_j] *)
  r : Var.t;
  t_n : Theory.t;
  p_n : Formula.t;
}

val make : Threesat.universe -> t

val w_pi : t -> Threesat.instance -> Formula.t
(** The conjunction [∧ W_π]. *)

val q_pi : t -> Threesat.instance -> Formula.t

val entails_q : t -> Threesat.instance -> bool
(** [T_n *_GFUV P_n |= Q_π], decided world-by-world. *)

val reduction_holds : t -> Threesat.instance -> bool
(** Does [entails_q] agree with the satisfiability of [π]?  (The content
    of Theorem 3.1 on this instance.) *)

type bounded = { base : t; s : Var.t; t'_n : Theory.t; p' : Formula.t }

val make_bounded : Threesat.universe -> bounded
(** The Theorem 4.1 lift: [|P'| = 1]. *)

val bounded_reduction_holds : bounded -> Threesat.instance -> bool
