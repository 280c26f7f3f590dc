(** The "measures of minimal distance" (Section 4.3's two-step scheme):
    [k_{T,P}], [δ(T,P)] and [Ω], computed with SAT probes instead of model
    enumeration.

    By Proposition 2.1 every inclusion- or cardinality-minimal difference
    between a model of [T] and a model of [P] is contained in [V(P)], so
    one session holding [T[V(P)/Y] ∧ P] (the letters outside [V(P)]
    shared by both sides) with one difference literal per letter of
    [V(P)] answers all three:

    - [k_{T,P}] is the least threshold of a cardinality ladder over the
      difference literals: [k + 1] assumption flips, at any [|V(P)|];
    - [δ(T,P)] and [Ω] come from the realizable differences, one SAT
      call per subset [S ⊆ V(P)] — [2^{|V(P)|}] calls, polynomial in
      [|T|] for bounded [P] and exponential in general, exactly the
      asymmetry Table 1 turns on.

    A value of {!t} is the one owner of its [(T, P)] pair: building it
    decides that [P] is satisfiable (the session's one solve) and takes
    [T]'s decision from its {!Logic.Kb} handle, and each measure is
    computed at most once, on first use.
    A construction or checker that needs a measure builds one value and
    takes its guard from it. *)

open Logic

type t

val create : Kb.t -> Formula.t -> t
(** [create kb p]: assert the pair once and decide [p] with one solve.
    [T] takes the handle's decision, or this session's first solve when
    the handle holds none, and an unsatisfiable [T] known beforehand
    raises before anything is built.  Raises [Invalid_argument] when
    [T] or [p] is unsatisfiable (the paper's standing assumption; [T]
    is named when both are). *)

val k : t -> int
(** [k_{T,P}]: the minimum Hamming distance between a model of [T] and
    a model of [P] over their joint alphabet. *)

(* lint: iface-ok test_session holds it against a formula per subset *)
val diffs : t -> Var.Set.t list
(** Every [S ⊆ V(P)] such that some model of [T] and some model of [P]
    differ exactly by [S].  Raises [Invalid_argument] when
    [|V(P)| > 16]; so do {!delta} and {!omega}, which derive from it. *)

val delta : t -> Var.Set.t list
(** [δ(T, P)]: the inclusion-minimal realizable differences. *)

val omega : t -> Var.Set.t
(** [Ω = ∪ δ(T, P)]. *)
