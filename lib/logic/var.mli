(** Propositional variables.

    Variables are interned: the same name always yields the same variable,
    and every variable has a printable name.  A letter a construction
    makes up (the [W] of [EXA(k,X,Y,W)], the [Y]/[Z] copies of an
    alphabet) is new only relative to the formula being built, and that
    construction names it ({!numbered}, [Compact.Names.copy]): the same
    input always gets the same letters. *)

type t = private int

val compare : t -> t -> int

val named : string -> t
(** Intern a name.  [named "a" = named "a"]. *)

val copy_of : suffix:string -> t -> t
(** [copy_of ~suffix v] interns [name v ^ suffix]: used to build the primed
    alphabets Y, Z, ... that the paper's constructions introduce. *)

val name : t -> string
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

val numbered : avoid:Set.t -> string -> unit -> t
(** [numbered ~avoid prefix]: a generator of the letters [prefix0],
    [prefix1], ... in turn, skipping every letter in [avoid]. *)

val set_of_list : t list -> Set.t
val pp_set : Format.formatter -> Set.t -> unit
(** Print a set of variables as [{a, b, c}] (the paper's notation for
    interpretations). *)
