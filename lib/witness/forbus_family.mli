(** The Theorem 3.3 witness family for Forbus non-query-compactability.

    For a clause universe [U] over [B_n], guards form an [(n+2) × |U|]
    matrix [C = {c_j^i}]; all rows are forced equal by
    [U_n = ∧_j ∧_{i=2}^{n+2} (c_j^1 ≡ c_j^i)], so "selecting clause j"
    costs [n+2] letter flips — strictly more than the [n+1] flips that
    separate [M_π] from the nearest model of [T_n].  With

    - [T_n = {U_n} ∪ B_n ∪ {r}],
    - [P_n = ((∧_i ¬b_i ∧ ¬r) ∨ ∧_j (c_j^1 → γ_j)) ∧ U_n],
    - [M_π = ∪_{i} {c_j^i | γ_j ∈ π}] (all [b]'s and [r] false),
    - [Q_π = ¬minterm(M_π)] (satisfied by every interpretation except
      [M_π]),

    Theorem 3.3: [M_π |= T_n *_F P_n] iff [π] is unsatisfiable, hence
    [T_n *_F P_n |= Q_π] iff [π] is satisfiable. *)

open Logic

type t = {
  universe : Threesat.universe;
  c : Var.t list list;  (** rows [i = 1..n+2] of the guard matrix *)
  r : Var.t;
  u_n : Formula.t;
  t_n : Theory.t;
  p_n : Formula.t;
}

val make : Threesat.universe -> t
(* lint: iface-ok test_witness checks Theorem 3.3's query Q_π *)
val q_pi : t -> Threesat.instance -> Formula.t

(* lint: iface-ok test_witness revises over it *)
val alphabet : t -> Var.t list
(** [L = B_n ∪ C ∪ {r}]. *)

(* lint: iface-ok test_witness; reduction_holds runs it *)
val m_pi_selected : t -> Threesat.instance -> bool
(** [M_π |= T_n *_F P_n], by brute-force semantic revision over the
    joint alphabet — use small universes. *)

val reduction_holds : t -> Threesat.instance -> bool
(** [m_pi_selected = not (is_satisfiable π)]? *)

val reduction_holds_sat : t -> Threesat.instance -> bool
(** The same check via the SAT-based model checker ({!Compact.Check}) —
    no model enumeration, so it scales to larger universes. *)
