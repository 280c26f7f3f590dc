(** Theorem 3.5: Weber's revision represented as [T[Ω/Z] ∧ P].

    [Ω = ∪ δ(T, P)] collects every letter occurring in some minimal
    difference between a model of [T] and a model of [P]; replacing those
    letters in [T] by a fresh copy [Z] "frees" them, which is exactly
    Weber's semantics.  The representation adds at most [|P|] plus a
    renaming to [T] — even more compact than Dalal's (the paper notes the
    contrast at the end of Section 3.1).

    Computing [Ω] itself is the hard part (it is the "measure of minimal
    distance" of this operator): {!Measure.omega}, [2^{|V(P)|}] SAT probes
    on one session.  By Proposition 2.1, [Ω ⊆ V(P)]. *)

open Logic

type info = {
  formula : Formula.t;
  omega : Var.Set.t;
  z : Var.t list;  (** fresh copy of [Ω], in [Var.Set.elements] order *)
}

val revise_info : Formula.t -> Formula.t -> info
(** Raises [Invalid_argument] when either formula is unsatisfiable or
    [|V(P)| > 16]. *)

val revise : Formula.t -> Formula.t -> Formula.t
