(** The six model-based operators of Section 2.2.2.

    Each follows its definition literally, selecting among the models of
    [P] by proximity to the models of [T]:

    - {b Winslett} (pointwise, inclusion): [N] survives iff some model [M]
      of [T] has [M Δ N ∈ µ(M, P)].
    - {b Borgida}: [T ∧ P] when consistent, Winslett otherwise.
    - {b Forbus} (pointwise, cardinality): [|M Δ N| = k_{M,P}] for some
      [M].
    - {b Satoh} (global, inclusion): [N Δ M ∈ δ(T, P)] for some [M].
    - {b Dalal} (global, cardinality): [|N Δ M| = k_{T,P}] for some [M].
    - {b Weber}: [N Δ M ⊆ Ω] for some [M].

    The paper assumes both [T] and [P] satisfiable (Section 2.2.2: the
    degenerate cases are trivially compactable).  We adopt the natural
    boundary convention: if [P] is unsatisfiable the result is
    inconsistent; if [T] is unsatisfiable (and [P] is not), the result is
    [P]. *)

open Logic

type op = Winslett | Borgida | Forbus | Satoh | Dalal | Weber

val all : op list
val name : op -> string
val of_name : string -> op option

val select : op -> Interp.t list -> Interp.t list -> Interp.t list
(** [select op t_models p_models]: the surviving models of [P]
    (boundary conventions above).  Internally packs both sets into
    masks over their joint letters and runs the operator engine that
    {!Mask.by_width} picks: {!Packed} when the letters fit one word,
    {!Wide} past {!Interp_packed.max_letters} — no width ceiling. *)

val revise_on : op -> Var.t list -> Formula.t -> Formula.t -> Result.t
(** Revision with models enumerated over an explicit alphabet, which must
    contain the letters of both formulas.  Runs the mask pipeline
    ({!Models.enumerate_masks} + the engine {!select} uses, chosen by
    the same width rule); past {!Models.sat_cutover} letters enumeration is
    SAT-backed, so large alphabets work as long as the model sets stay
    small. *)

val revise : op -> Formula.t -> Formula.t -> Result.t
(** [revise_on] over the joint alphabet [V(T) ∪ V(P)]. *)

(** The operator engine, written once over {!Mask.S} and applied to
    both mask representations.  The pointwise operators compute each
    model [M]'s measure ([µ(M, P)], [k_{M,P}]) once, not once per
    candidate. *)

(** One-word masks ({!Interp_packed.set}) over a shared alphabet. *)
module Packed : sig
  val select :
    op -> Interp_packed.set -> Interp_packed.set -> Interp_packed.set
end

(** Multi-word masks ({!Interp_wide.set}).  The alphabet argument is
    ignored; it is kept so existing callers stay source-compatible. *)
module Wide : sig
  val select :
    op ->
    Interp_packed.alphabet ->
    Interp_wide.set ->
    Interp_wide.set ->
    Interp_wide.set
end
