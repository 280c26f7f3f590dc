(** 3-SAT instances over the shared atom set [B_n] (Definition 2.5).

    The paper partitions 3-SAT by size and assumes every instance of
    [3-SAT_n] is a subset of [T_n^max], the set of all three-literal
    clauses over [B_n = {b_1, ..., b_n}].  The witness families key their
    guard letters one-to-one with a clause {e universe}; the full
    [T_n^max] has [8 · C(n,3)] clauses (Θ(n³)), and the constructions are
    parametric in any sub-universe, which the verification benches exploit
    to keep brute-force model checks feasible. *)

open Logic

val atoms : int -> Var.t list
(** [B_n = {b1, ..., bn}]. *)

type universe

val full_universe : int -> universe
(** [T_n^max]: all three-literal clauses on three distinct atoms of
    [B_n], in a fixed order. *)

val sub_universe : int -> int list -> universe
(** [sub_universe n idxs]: the clauses of [full_universe n] at the given
    indices (order preserved, duplicates rejected). *)

val n_of : universe -> int
val clauses : universe -> Formula.t list
val size : universe -> int
(** Number of clauses ([m_n^max] for the full universe). *)

type instance = { universe : universe; selected : int list }
(** A 3-SAT instance [π ⊆] universe, as sorted clause indices. *)

(* lint: iface-ok test_witness builds instances and checks the guards *)
val instance : universe -> int list -> instance

val is_satisfiable : instance -> bool
(** Via the CDCL solver. *)

val random_instance : Random.State.t -> universe -> nclauses:int -> instance

val pp_instance : Format.formatter -> instance -> unit
