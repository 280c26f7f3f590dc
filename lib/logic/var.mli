(** Propositional variables.

    Variables are interned: the same name always yields the same variable,
    and every variable has a printable name.  Gensym ("fresh") variables get
    unique names and are used for Tseitin encodings, the [W] letters of
    [EXA(k,X,Y,W)], the [Y]/[Z] copies of an alphabet, etc. *)

type t = private int

val compare : t -> t -> int
val equal : t -> t -> bool

val named : string -> t
(** Intern a name.  [named "a" = named "a"]. *)

val fresh : ?prefix:string -> unit -> t
(** A brand-new variable whose name does not collide with any interned or
    previously generated name.  Default prefix is ["_w"]. *)

val copy_of : suffix:string -> t -> t
(** [copy_of ~suffix v] interns [name v ^ suffix]: used to build the primed
    alphabets Y, Z, ... that the paper's constructions introduce. *)

val name : t -> string
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

val set_of_list : t list -> Set.t
val pp_set : Format.formatter -> Set.t -> unit
(** Print a set of variables as [{a, b, c}] (the paper's notation for
    interpretations). *)
