(** A knowledge-base session implementing the paper's closing advice
    (Section 6.2 / Section 8): {e "a reasonable strategy seems to be to
    delay revisions P¹, ..., Pᵐ and incorporate them when
    T * P¹ * ... * Pᵐ is accessed.  Moreover, it is helpful to save the
    formulae P¹, ..., Pᵐ even after incorporation, for possible further
    revisions"} — polynomiality of the Table 2 YES entries is only
    guaranteed while all the formulas are available.

    A session therefore stores the base theory and the full revision log;
    queries incorporate lazily, and {!compile} produces the
    query-equivalent compact representation for the session's operator
    ({!Construct.iterate} for the model-based operators, the revised
    theory itself for WIDTIO). *)

open Logic

type t

val create : op:Revision.Operator.t -> Theory.t -> t
(** GFUV/Nebel sessions support at most one pending revision (the paper
    never defines iterated revision of a theory {e set}); a second
    {!revise} on such a session raises [Invalid_argument]. *)

val op : t -> Revision.Operator.t

val revise : t -> Formula.t -> unit
(** Log a revision.  Nothing is computed — incorporation is delayed. *)

val log : t -> Formula.t list
(** The revision log, oldest first. *)

val result : t -> Revision.Result.t
(** Incorporate now: the model-set denotation of [T * P¹ * ... * Pᵐ].
    Memoized until the next {!revise}. *)

val ask : t -> Formula.t -> bool
(** [T * P¹ * ... * Pᵐ |= Q]. *)

val compile : t -> Formula.t
(** A query-equivalent propositional representation of the session's
    current knowledge, built by the constructions of Sections 4-6.
    Raises [Invalid_argument] for GFUV/Nebel (provably uncompactable)
    and for pointwise operators when some logged formula exceeds the
    bounded-width limit. *)
