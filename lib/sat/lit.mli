(** Literals for the CDCL solver.

    A literal is an integer: variable [v] (0-based) appears positively as
    [2*v] and negatively as [2*v+1].  This encoding keeps literal negation a
    single [lxor] and lets watch lists be plain arrays indexed by literal. *)

type t = int

val of_var : ?neg:bool -> int -> t
(** [of_var v] is the positive literal on variable [v]; [of_var ~neg:true v]
    the negative one.  [v] must be non-negative. *)

val var : t -> int
(** Variable index of a literal. *)

val neg : t -> t
(** Complement literal. *)

val is_pos : t -> bool
(** [true] iff the literal is positive. *)

val to_int : t -> int
(** DIMACS-style integer: [v+1] for positive, [-(v+1)] for negative. *)

val of_int : int -> t
(** Inverse of {!to_int}.  Raises [Invalid_argument] on [0]. *)
