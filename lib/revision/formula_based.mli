(** The formula-based operators of Section 2.2.1: GFUV, Nebel, WIDTIO.

    All three are driven by [W(T, P)], the set of maximal (w.r.t. set
    inclusion) subsets of the theory [T] consistent with the revising
    formula [P].  These operators are syntax-sensitive: logically
    equivalent presentations of [T] may revise differently, which is why
    they consume a {!Logic.Theory.t} rather than a formula. *)

open Logic

exception Cap_exceeded of int
(** Raised when world enumeration exceeds its cap; enumeration is never
    silently truncated. *)

val worlds : ?cap:int -> Theory.t -> Formula.t -> Theory.t list
(** [worlds t p] is [W(T, P)].  Each returned theory keeps the member
    order of [t].  When [t] itself is consistent with [p], the single
    world is [t].  When [p] is unsatisfiable, [W(T,P)] is empty.
    [cap] (default 100_000) bounds the number of worlds. *)

val gfuv_formula : ?cap:int -> Theory.t -> Formula.t -> Formula.t
(** The explicit representation of [T *_GFUV P]:
    [(∨_{T' ∈ W(T,P)} ∧T') ∧ P] — Ginsberg's disjunction of possible
    worlds.  Its size is what Theorem 3.1 proves cannot be compressed in
    general. *)

val gfuv_entails : ?cap:int -> Theory.t -> Formula.t -> Formula.t -> bool
(** [T *_GFUV P |= Q]: consequence in every possible world ([Q] must hold
    in each [T' ∪ {P}]).  Decided world-by-world with SAT, without
    building the disjunction. *)

val gfuv_revise : ?cap:int -> Theory.t -> Formula.t -> Result.t
(** Model-set denotation of the GFUV revision over [V(T) ∪ V(P)]. *)

val widtio : ?cap:int -> Theory.t -> Formula.t -> Theory.t
(** [T *_WIDTIO P = (∩ W(T,P)) ∪ {P}]: keep only the formulas present in
    every maximal consistent subset.  Always linear in [|T| + |P|] —
    the one operator that is trivially logically compactable. *)

val widtio_revise : ?cap:int -> Theory.t -> Formula.t -> Result.t

(* lint: iface-ok test_revision checks the priority classes directly *)
val nebel_worlds :
  ?cap:int -> priorities:Theory.t list -> Formula.t -> Theory.t list
(** Nebel's prioritized base revision: [priorities] lists the theory in
    decreasing priority classes; a world is built by greedily taking a
    maximal consistent subset of each class in order.  With a single
    class this coincides with {!worlds}. *)

val nebel_revise :
  ?cap:int -> priorities:Theory.t list -> Formula.t -> Result.t
