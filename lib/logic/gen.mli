(** Seeded random generation of formulas, theories and 3-CNF instances.

    Benchmarks and property tests share these generators.  Everything is
    driven by an explicit [Random.State.t] so sweeps are reproducible. *)

val formula : Random.State.t -> vars:Var.t list -> depth:int -> Formula.t
(** Random formula over the given letters with nesting depth at most
    [depth].  Leaves are literals (constants appear with low
    probability). *)

val theory :
  Random.State.t -> vars:Var.t list -> members:int -> depth:int -> Theory.t

val cnf3 : Random.State.t -> vars:Var.t list -> nclauses:int -> Formula.t
(** Random 3-CNF. *)

val letters : ?prefix:string -> int -> Var.t list
(** [letters n] is the alphabet [x1 ... xn] (or [prefix1 ...]). *)

