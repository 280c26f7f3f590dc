(** Theorem 3.4: the polynomial-size query-equivalent representation of
    Dalal's revision,
    [T' = T[X/Y] ∧ P ∧ EXA(k, X, Y, W)] with [k = k_{T,P}].

    [X] is the joint alphabet of [T] and [P], [Y] a fresh copy of it, and
    [EXA] the Hamming-counting formula of {!Logic.Hamming}.  The minimum
    distance [k] is {!Measure.k}: ladder probes for [k = 0, 1, ...], each
    one (NP) solver call on one session, matching the paper's observation
    that the "measure of minimal distance" is the only hard part of the
    two-step query-answering scheme.

    The result is query-equivalent to [T *_D P] (criterion (1)) but not
    logically equivalent: it constrains the fresh letters [Y ∪ W], which
    is exactly why Dalal's operator lands in the YES column only under
    query equivalence (Theorem 3.6 shows the logical-equivalence NO). *)

open Logic

type info = {
  formula : Formula.t;  (** the representation [T'] *)
  k : int;  (** the minimum distance [k_{T,P}] *)
  x : Var.t list;  (** the original alphabet [X] *)
  y : Var.t list;  (** the copy [Y] (new letters) *)
  aux : Var.t list;  (** the [EXA] internal letters [W] (new letters) *)
}

val revise_info : Formula.t -> Formula.t -> info
(** Both formulas must be satisfiable (the paper's standing assumption;
    {!Measure.create} raises [Invalid_argument] otherwise — the
    degenerate cases are compactable trivially and carry no content
    here). *)

val revise : Formula.t -> Formula.t -> Formula.t
(** [(revise_info t p).formula]. *)
