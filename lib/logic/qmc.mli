(** Quine-McCluskey two-level minimization.

    Exact minimal formula size is infeasible to compute (the paper proves
    conditional lower bounds precisely because of this), so the benchmarks
    measure representation explosion on a minimized DNF: prime implicants
    via Quine-McCluskey, then an essential-prime + greedy set cover.  This
    is a strong minimizer for the instance sizes we sweep (alphabets up to
    ~14 letters) and gives a far fairer "smallest formula" proxy than the
    naive minterm disjunction. *)

val minimize : Var.t list -> Interp.t list -> Formula.t
(** [minimize alphabet models] is a DNF formula over [alphabet] whose
    model set is exactly [models].  [models] must be interpretations over
    [alphabet].  Empty model list gives [false]; the full set gives
    [true]. *)

val minimized_size : Var.t list -> Interp.t list -> int
(** [Formula.size (minimize alphabet models)]. *)

val minimized_cnf_size : Var.t list -> Interp.t list -> int
(** Size of the dual form: a minimized CNF over [alphabet] whose model
    set is exactly [models], obtained by minimizing the complement and
    negating the resulting cubes (each prime implicant of the complement
    becomes a prime implicate).  Together with {!minimize} and the BDD
    node count this completes the representation-size triad the
    explosion benches track. *)
