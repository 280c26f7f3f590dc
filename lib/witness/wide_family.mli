(** A witness family for the multi-word packed engine: instances whose
    joint alphabet is arbitrarily wide (past
    {!Logic.Interp_packed.max_letters} letters) while the interesting
    model sets stay small enough to enumerate with the SAT walk.

    [T = w₁ ∧ … ∧ w_n] has exactly one model (everything true);
    [P = (¬w₁ ∨ … ∨ ¬w_m) ∧ w_{m+1} ∧ … ∧ w_n] has [2^m − 1] models —
    the assignments making at least one of the first [m] letters false
    and the rest true.  Every minimal difference with the [T] model is a
    singleton [{w_i}, i ≤ m], so [k_{T,P} = 1], Dalal/Forbus/Satoh/
    Winslett all select the [m] one-flip models, and [Ω = {w₁, …, w_m}].
    The explicit disjunction-of-worlds representation of [P] grows as
    [Θ(n·2^m)] — superpolynomial in [m] at fixed [n] — which is the
    measured NO-row the size audit runs at [n = 100]. *)

open Logic

type t = { n : int; m : int; t_wide : Formula.t; p_wide : Formula.t }

val make : n:int -> m:int -> t
(** Requires [1 <= m <= n]. *)

val letters : t -> Var.t list
(** The alphabet [w₁ … w_n], in index order. *)

val expected_world_count : t -> int
(** [2^m − 1], closed form (requires [m] small enough for an [int]). *)

val world_count : t -> int
(** [Models.count] over the full alphabet: exercises the SAT tally past
    the cutover.  Equals {!expected_world_count}. *)

val naive_size : t -> int
(** Tree size of the disjunction-of-minterms form of [P] over the full
    alphabet, built through the wide enumeration path. *)
