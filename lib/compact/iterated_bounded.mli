(** Section 6: query-compact representations for iterated {e bounded}
    revision — Winslett (formulas (12), (15), (16)), Satoh (13), Forbus
    (14) and Borgida, with quantifiers eliminated per Theorem 6.3.

    Each single-step construction returns a propositional formula that is
    query-equivalent to [T * P] over [V(T) ∪ V(P)] and introduces a fresh
    copy [Y] of [V(P)] (plus nothing else: the universally quantified
    blocks [Z], [W] are expanded away).  The iterated versions fold the
    single step: step [i] renames [V(Pⁱ)] to a fresh [Y_i] inside the
    accumulated formula and conjoins [Pⁱ] with the expanded minimality
    guard — the inductive definition of [WIN_i] in formula (16).  Sizes
    grow by [O(2^{|V(Pⁱ)|} · const + |Pⁱ|)] per step: polynomial in
    [|T| + m] for bounded [Pⁱ], which is Corollary 6.4.

    Preconditions: every revising formula must be satisfiable and have at
    most 8 letters (the quantifier expansion is exponential in that
    width); [T] must be satisfiable.  Each is decided once: Satoh's
    {!Measure} decides [T] and [Pⁱ] with its first query, the other
    operators run one plain check per formula. *)

open Logic

val winslett : Formula.t -> Formula.t -> Formula.t
(** Formula (12), expanded. *)

val satoh : Formula.t -> Formula.t -> Formula.t
(** Formula (13), expanded (two blocks: [Z] and [W]). *)

val winslett_iter : Formula.t -> Formula.t list -> Formula.t
(** Formulas (15)/(16): the [WIN_m] representation of
    [T *Win P¹ *Win ... *Win Pᵐ]. *)

val satoh_iter : Formula.t -> Formula.t list -> Formula.t
val forbus_iter : Formula.t -> Formula.t list -> Formula.t
val borgida_iter : Formula.t -> Formula.t list -> Formula.t

val for_op : Revision.Model_based.op -> Formula.t -> Formula.t list -> Formula.t
(** Iterated dispatch; [Dalal] and [Weber] route to {!Iterated} (their
    general-case constructions already cover the bounded case). *)

val revise : Revision.Model_based.op -> Formula.t -> Formula.t -> Formula.t
(** One revision [T * P], as every query-answering route builds it:
    Theorem 3.4 ({!Dalal_compact}) for Dalal, Theorem 3.5
    ({!Weber_compact}) for Weber — neither bounds [|V(P)|] — and the
    single step of {!for_op} for the pointwise operators. *)

(** {1 Unexpanded QBF views}

    The quantified representations themselves are polynomial even for
    unbounded [|V(P)|] — it is the Theorem 6.3 quantifier expansion that
    costs [2^{|V(P)|}].  These views return the QBF before expansion so
    that divide can be measured (see the bench's "where the exponential
    enters" sweep). *)

val winslett_qbf : Formula.t -> Formula.t -> Qbf.t
(** Formula (12) with its [∀Z] block intact (no width limit). *)

val forbus_qbf : Formula.t -> Formula.t -> Qbf.t
(** Formula (14) with a polynomial [DIST < DIST] matrix
    ({!Logic.Hamming.dist_lt}) and its [∀Z] block intact. *)
