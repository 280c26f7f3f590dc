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

val name : t -> string
val of_name : string -> t option
val is_model_based : t -> bool

val model_op : t -> Model_based.op
(** The model-based operator of the six; raises [Invalid_argument] on
    GFUV, Nebel and WIDTIO (test with {!is_model_based}). *)

(* lint: iface-ok test_revision checks the class split Nebel runs on *)
val partition : int list -> 'a list -> 'a list list
(** Split a list by consecutive class sizes; a final open class absorbs
    the remainder.  Raises [Invalid_argument] if the sizes overrun. *)

val revise : t -> Theory.t -> Formula.t -> Result.t
(** The model-set denotation of [T * P] over [V(T) ∪ V(P)]. *)
