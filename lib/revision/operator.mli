(** Unified dispatch over all revision operators in the paper.

    Formula-based operators read the theory's syntactic presentation;
    model-based ones only its conjunction.  [Nebel] carries its priority
    partition as a list of class sizes over the theory's member list
    (e.g. [[2; 3]]: first two members outrank the remaining three). *)

open Logic

type t =
  | Gfuv
  | Nebel of int list
  | Widtio
  | Winslett
  | Borgida
  | Forbus
  | Satoh
  | Dalal
  | Weber

val all : t list
(** Every operator of Tables 1 and 2, with [Nebel []] standing for the
    single-class (= GFUV) instance. *)

val name : t -> string
val of_name : string -> t option
val is_model_based : t -> bool

val model_op : t -> Model_based.op
(** The model-based operator of the six; raises [Invalid_argument] on
    GFUV, Nebel and WIDTIO (test with {!is_model_based}). *)

val partition : int list -> 'a list -> 'a list list
(** Split a list by consecutive class sizes; a final open class absorbs
    the remainder.  Raises [Invalid_argument] if the sizes overrun. *)

val revise : t -> Theory.t -> Formula.t -> Result.t
(** The model-set denotation of [T * P] over [V(T) ∪ V(P)]. *)

val entails : t -> Theory.t -> Formula.t -> Formula.t -> bool
(** [T * P |= Q].  For formula-based operators this is decided
    world-by-world with SAT (no model enumeration); for model-based ones
    it checks the enumerated model set. *)

val naive_formula : t -> Theory.t -> Formula.t -> Formula.t
(** The "written out on paper" representation whose growth the explosion
    benchmarks track: disjunction of possible worlds for formula-based
    operators, disjunction of model minterms for model-based ones, the
    revised theory's conjunction for WIDTIO. *)
