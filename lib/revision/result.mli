(** The result of a revision, held extensionally as a model set.

    Every operator in the paper defines [T * P] by its models over the
    joint alphabet of [T] and [P]; this module is that denotation.  It
    supports the two decision problems the paper's complexity discussion
    revolves around — inference ([T * P |= Q]) and model checking
    ([M |= T * P]) — plus synthesis of the naive "disjunction of models"
    formula whose size the explosion benchmarks measure. *)

open Logic

type t

val make : Var.t list -> Interp.t list -> t
(** [make alphabet models].  Models must be interpretations over
    [alphabet]; the list is deduplicated. *)

val alphabet : t -> Var.t list
val models : t -> Interp.t list
val model_count : t -> int

val entails : t -> Formula.t -> bool
(** [entails r q]: does every model satisfy [q]?  [q] may only use letters
    of the alphabet (letters outside it read false). *)

val model_check : t -> Interp.t -> bool

val to_dnf : t -> Formula.t
(** The naive representation: disjunction of minterms over the alphabet. *)

val to_minimized_dnf : t -> Formula.t
(** Quine-McCluskey minimized representation. *)

val equal : t -> t -> bool
(** Same alphabet (as a set) and same model set. *)

val pp : Format.formatter -> t -> unit
