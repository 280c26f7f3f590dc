(** SAT-based model checking [M |= T * P] (the Section 2.2.4 decision
    problem) and entailment [T * P |= Q], without enumerating model
    sets and without building a representation of [T * P].

    On a SAT route the two are one question: [N] is a model of [T * P]
    exactly when [T * P] is consistent with [N] pinned, and [T * P |= Q]
    exactly when it is inconsistent with [¬Q].  So both tests ask one
    private question of a {!Measure} session, which holds
    [T ∧ P[V(P)/Y]] with one difference literal per letter of [V(P)]
    (Proposition 2.1 puts every minimal difference there): does [T * P],
    [V(P)] read on the copies [Y], have a model consistent with these
    assumption literals and these formulas?  Its answer is such a model
    or none.  {!checker} asks it with the candidate pinned (on the
    copies for [V(P)], on [T]'s letters outside it), {!entails} with
    [¬Q] on the copies.  It is dispatched once per operator:

    - {b Dalal}, {b Weber}, {b Satoh}: {!Measure.consistent}, the
      session under one assumption set: a ladder probe at [k]
      (computing [k] takes a logarithmic-ish number of NP probes,
      matching Δ₂[O(log n)]), one solve with the differences outside
      [Ω] off, or one solve per [S ∈ δ].  Under a candidate's pins each
      is pure propagation.
    - {b Borgida} on a compatible pair ({!Measure.compatible}: [T ∧ P]
      satisfiable, decided once per measure): one solve with every
      difference literal off.
    - {b Winslett}, {b Forbus}, and {b Borgida} otherwise: genuinely
      Σ₂-flavoured (Π₂ᵖ-complete entailment, Eiter-Gottlob), answered
      by one CEGAR witness loop over model pairs, a 2QBF loop in the
      style of Janota and Marques-Silva.  A witness is a model pair
      [(M, N)] of the session and the question's constraints, [M] on
      [T]'s letters and [N] on the copies; by Proposition 2.1 [N] takes
      [M]'s values outside [V(P)] (flipping such a letter of [N] keeps
      [P] and moves [N] strictly closer to [M]).  A witness stands when
      no P-model [N'] refutes it: with [V(P)] pinned to [M] the
      difference literals spell out [M Δ N'], so a refutation is one
      ladder probe below [|M Δ N|] (Forbus), with every difference
      outside [M Δ N] off (Winslett, Borgida), and [N'] is read off the
      copies.  Each refutation blocks every pair with [N]'s copy values
      that agrees with [N'] on [A = (N' Δ N) \ (M Δ N')]
      ({!refutation_core}): under inclusion [A] is all of [N' Δ N] and
      such an [M'] has [M' Δ N' = (M' Δ N) \ A ⊊ M' Δ N]; under
      cardinality [M] sides with [N'] on a strict majority of
      [D = N' Δ N], so [|M' Δ N'| - |M' Δ N| <= |D \ A| - |A| < 0].
      The blocks span [V(P)] and the copies, so a question runs at most
      [4^{|V(P)|}] refinements, and a candidate's check, its copies
      pinned, at most [2^{|V(P)|}]: a constant for bounded [P] however
      large [T] is.  The loop is capped; hitting the cap raises rather
      than guessing.

    All checkers agree with the extensional
    {!Revision.Result.model_check} (property-tested); their point is
    scale: alphabets far beyond brute-force enumeration.  The witnesses
    are masks, written once over {!Logic.Mask.S} in the representation
    {!Logic.Mask.engine} picks for the alphabet.  The fresh-solver
    checkers these sessions replaced are kept only as the test suite's
    differential oracle, outside the library. *)

open Logic

exception
  Cegar_cap_exceeded of { cap : int; opname : string; nletters : int }
(** The CEGAR witness loop (Winslett, Forbus, incompatible Borgida)
    refined more than [cegar_cap] times.  Carries the cap, the operator
    name, and the alphabet width the loop died on. *)

val checker :
  ?cegar_cap:int ->
  Revision.Model_based.op ->
  Measure.t ->
  Interp.t ->
  bool
(** [checker op m]: the membership test of [T * P] for [m]'s pair.
    [checker op m n] answers [false] when [n] falsifies [P], and
    otherwise asks whether [T * P] is consistent with [n] pinned (on
    the copies for [V(P)], on [T]'s letters outside [V(P)]); letters
    outside [V(T) ∪ V(P)] are ignored.  Every question is asked on
    [m]'s session alone: [m] keeps its [k], [Ω] or [δ], its ladder and
    its Borgida [T ∧ P] decision (taken when [checker op m] is applied)
    for every candidate.  Every clause a candidate adds sits in a scope
    retired when it ends, so an answer never depends on the candidates
    checked before it.  [cegar_cap] (default 50_000) bounds the witness
    loop of Winslett, Forbus and incompatible Borgida; exceeding it
    raises {!Cegar_cap_exceeded}.  Not domain-safe, as [m] is not. *)

val entails :
  ?cegar_cap:int ->
  Revision.Model_based.op ->
  Measure.t ->
  Formula.t ->
  bool
(** [entails op m]: the entailment test of [T * P] for [m]'s pair, with
    no construction.  [entails op m q] holds when [T * P] is
    inconsistent with [¬q] read on the model pairs
    ({!Measure.on_copies}: letters outside [V(T) ∪ V(P)] are free),
    asked as {!checker} asks (Borgida's [T ∧ P] decision is taken when
    [entails op m] is applied).  Each model of [T * P] found for a [¬q]
    is kept ({!Logic.Witnesses}): a later [q] it falsifies is answered
    [false] with no solve.  The witness loop's blocks are retired with
    their query.  No width bound short of [cegar_cap] (default 50_000
    per query, raising {!Cegar_cap_exceeded}), where {!Construct}
    expands [2^{|V(P)|}].  Not domain-safe, as [m] is not. *)

val model_check :
  ?cegar_cap:int ->
  Revision.Model_based.op ->
  Formula.t ->
  Formula.t ->
  Interp.t ->
  bool
(** [model_check op t p n]: {!checker} on a fresh [Measure.create]
    for [T] and [p], applied to [n], in one [check.batch] span.
    Raises [Invalid_argument] when [T] or [p] is unsatisfiable. *)

(* lint: iface-ok test_compact checks it against the CEGAR refutation *)
val refutation_core :
  (module Mask.S with type t = 'm) ->
  witness:'m ->
  candidate:'m ->
  refuter:'m ->
  'm
(** [refutation_core (module M) ~witness:m ~candidate:n ~refuter:n']:
    the mask [A = (N' Δ N) \ (M Δ N')] of letters the CEGAR loop blocks
    on after [n'] refuted the witness [m] against the candidate [n].
    Every witness agreeing with [n'] on [A] is refuted by [n'] too (by
    inclusion when [M Δ N' ⊊ M Δ N], by cardinality when
    [|M Δ N'| < |M Δ N|]), and [m] is one of them. *)


