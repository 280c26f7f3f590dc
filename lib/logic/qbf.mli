(** Quantified boolean formulas with quantifier expansion.

    Section 6 of the paper writes the bounded-iterated compact
    representations (formulas (12)-(16)) as QBFs over constant-size
    quantified blocks and then appeals to Theorem 6.3: replacing each
    quantifier block by the conjunction (for [Forall]) or disjunction (for
    [Exists]) over all assignments to the block yields an equivalent
    propositional formula with at most quadratic blowup per block.  This
    module implements exactly that expansion. *)

type t =
  | Prop of Formula.t
  | Forall of Var.t list * t
  | Exists of Var.t list * t
  | Conj of t list

val prop : Formula.t -> t
val forall : Var.t list -> t -> t
(** [forall [] t = t]. *)

val conj : t list -> t

(* lint: iface-ok test_semantics checks the letters expand leaves free *)
val free_vars : t -> Var.Set.t

val expand : t -> Formula.t
(** Quantifier elimination by assignment expansion.  Exponential in each
    block's width — the paper only ever expands constant-width blocks
    ([|V(P)| <= k]).  Blocks wider than 20 raise [Invalid_argument]. *)
