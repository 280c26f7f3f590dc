(** Section 4: compact representations for revision with bounded [|P|].

    When [|P| <= k] (hence [|V(P)| <= k]) every model-based operator is
    logically compactable.  The constructions all share one shape: a
    disjunction over subsets [S ⊆ V(P)] of the "flipped" theory
    [T[S/S̄]] (replace each letter of [S] by its negation), guarded so
    that [S] is an admissible minimal difference.  By Proposition 4.2,
    [N |= T[S/S̄]] iff [N Δ S |= T], so each disjunct describes the models
    of [P] at difference exactly [S] from a model of [T].

    Sizes are linear in [|T|] with a [2^{O(k)}] constant — polynomial for
    bounded [k], matching Table 1's bounded YES column.  All functions
    raise [Invalid_argument] when [|V(P)| > 14] (the constant would
    explode) or when [T] or [P] is unsatisfiable where the construction
    requires it.

    All results here are {e logically} equivalent to the semantic
    revision over [V(T) ∪ V(P)] — no new letters are introduced. *)

open Logic

val winslett : Formula.t -> Formula.t -> Formula.t
(** Formula (5):
    [P ∧ ∨_{S ⊆ V(P)} (T[S/S̄] ∧ ∧_{∅≠C⊆S} ¬P[C/C̄])]. *)

(* lint: iface-ok test_compact's §4.1 example; for_op runs it *)
val forbus : Formula.t -> Formula.t -> Formula.t
(** Formula (6): as (5) with the guard ranging over [C ⊆ V(P)] with
    [|C Δ S| < |S|] (cardinality in place of containment). *)

(* lint: iface-ok test_compact's §4.2 example; for_op runs it *)
val satoh : Formula.t -> Formula.t -> Formula.t
(** Formula (7): [P ∧ ∨_{S ∈ δ(T,P)} T[S/S̄]] with [δ] from
    {!Measure.delta}. *)

val dalal : Formula.t -> Formula.t -> Formula.t
(** Formula (8): [P ∧ ∨_{S ⊆ V(P), |S| = k_{T,P}} T[S/S̄]]. *)

(* lint: iface-ok test_compact's §4.2 example; for_op runs it *)
val weber : Formula.t -> Formula.t -> Formula.t
(** Formula (9): [P ∧ ∨_{S ⊆ Ω} T[S/S̄]]. *)

val for_op : Revision.Model_based.op -> Formula.t -> Formula.t -> Formula.t
(** Dispatch over the six operators; Borgida's construction is
    Corollary 4.4: [T ∧ P] when consistent, formula (5) otherwise. *)
