(** Horn upper bounds (least upper bounds), after Kautz-Selman.

    Section 2.3 of the paper places its results next to approximate
    knowledge compilation: Kautz and Selman proved that poly-size Horn
    {e least upper bounds} (the strongest Horn theory implied by a
    formula) would put NP in P/poly — the first use in AI of the
    non-uniform argument the paper builds on — and Gogic, Papadimitriou
    and Sideri studied recompiling such bounds after a {e revision}.
    This module implements the Horn LUB so the benches can measure it on
    revised knowledge bases.

    Semantics: a boolean function is Horn iff its model set is closed
    under intersection; the LUB's models are the intersection closure of
    the input's models.  All operations here are extensional (explicit
    model sets over small alphabets), which is all the benchmarks
    need. *)

val lub_models : Var.t list -> Formula.t -> Interp.t list
(** Models of the Horn LUB of the formula over the given alphabet. *)

(* lint: iface-ok test_structures checks the clauses lub_size counts *)
val lub : Var.t list -> Formula.t -> Cnf.t
(** A Horn CNF whose model set is exactly [lub_models].  Built
    counterexample-by-counterexample: for every non-model [m] of the
    closure, emit the Horn clause [(AND m) -> x] where [x] is true in
    every closure model containing [m] (or the all-negative clause when
    no such model exists), then drop redundant clauses greedily. *)

val lub_size : Var.t list -> Formula.t -> int
(** Total literal count of {!lub}. *)
