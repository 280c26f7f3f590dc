(** SAT-based model checking [M |= T * P] (the Section 2.2.4 decision
    problem) and entailment [T * P |= Q], without enumerating model
    sets and without building a representation of [T * P].

    The paper points at Liberatore-Schaerf for the complexity of this
    problem; the implementations here mirror those upper bounds:

    Every solver question is asked on a {!Measure} session, which
    holds [T ∧ P[V(P)/Y]] with one difference literal per letter of
    [V(P)] (Proposition 2.1 puts every minimal difference there):

    - {b Dalal}, {b Weber}, {b Satoh}: one {!Measure.member} query per
      candidate [N |= P], [N] pinned: a ladder probe at [k] (computing
      [k] takes a logarithmic-ish number of NP probes, matching
      Δ₂[O(log n)]), one solve with the differences outside [Ω] off,
      or [|δ|] solves that fix the difference pattern, each pure
      propagation.
    - {b Winslett / Forbus}: genuinely Σ₂-flavoured; a CEGAR loop guesses
      a witness [M |= T] and refutes the minimality of [N Δ M] with a
      P-model [N'] closer to [M].  By Proposition 2.1 a witness that
      selects [N] agrees with [N] outside [V(P)] (flipping such a letter
      of [N] keeps [P] and moves [N] strictly closer to [M]), so the
      witnesses are pinned to [N] there, and [N'] takes [M]'s values
      there; the witnesses and refuters span [V(P)] only.  With [V(P)]
      pinned to [M] the difference literals spell out [M Δ N'], so a
      refutation is one ladder probe below [|M Δ N|] (Forbus), with
      every difference outside [M Δ N] off (Winslett), and [N'] is read
      off the copies.  A candidate therefore costs at most
      [2^{|V(P)|}] refinements, a constant for bounded [P] however
      large [T] is.  Each refutation blocks every witness
      that agrees with [N'] on [A = (N' Δ N) \ (M Δ N')]
      ({!refutation_core}): under inclusion [A] is all of [N' Δ N] and
      such an [M'] has [M' Δ N' = (M' Δ N) \ A ⊊ M' Δ N]; under
      cardinality [M] sides with [N'] on a strict majority of
      [D = N' Δ N], so [|M' Δ N'| - |M' Δ N| <= |D \ A| - |A| < 0].
      The loop is capped; hitting the cap raises rather than guessing.
    - {b Borgida}: evaluation when [T ∧ P] is satisfiable
      ({!Measure.compatible}: one solve with every difference literal
      off, once per measure), Winslett otherwise.

    {!entails} asks [T * P |= Q] on the same session: Dalal, Weber and
    Satoh under their assumptions, Borgida by one solve when [T ∧ P] is
    satisfiable, and Winslett and Forbus (Π₂ᵖ-complete, Eiter-Gottlob)
    by the same refutations over model pairs, a 2QBF CEGAR loop in the
    style of Janota and Marques-Silva.

    All checkers agree with the extensional
    {!Revision.Result.model_check} (property-tested); their point is
    scale: alphabets far beyond brute-force enumeration.  The CEGAR
    witnesses are masks, written once over {!Logic.Mask.S} in the
    representation {!Logic.Mask.engine} picks for the alphabet.  The
    fresh-solver checkers these sessions replaced are kept only as the
    test suite's differential oracle, outside the library. *)

open Logic

exception
  Cegar_cap_exceeded of { cap : int; opname : string; nletters : int }
(** The Winslett/Forbus CEGAR witness loop refined more than
    [cegar_cap] times.  Carries the cap, the operator name, and the
    alphabet width the loop died on. *)

val checker :
  ?cegar_cap:int ->
  Revision.Model_based.op ->
  Measure.t ->
  Interp.t ->
  bool
(** [checker op m]: the membership test of [T * P] for [m]'s pair.
    [checker op m n] restricts [n] to [V(T) ∪ V(P)] (letters outside it
    are ignored), answers [false] when [n] falsifies [P], and otherwise
    asks [m]'s session alone: [m] keeps its [k], [Ω] or [δ], its ladder
    and its Borgida [T ∧ P] decision for every candidate the checker is
    applied to.  Every clause a candidate adds sits in a scope retired
    when it ends, so an answer never depends on the candidates checked
    before it.  [cegar_cap] (default 50_000) bounds the Winslett/Forbus
    witness loop; exceeding it raises {!Cegar_cap_exceeded}.  Not
    domain-safe, as [m] is not. *)

val entails :
  ?cegar_cap:int ->
  Revision.Model_based.op ->
  Measure.t ->
  Formula.t ->
  bool
(** [entails op m]: the entailment test of [T * P] for [m]'s pair,
    asked on [m]'s session with no construction.  [entails op m q]
    reads [q] on the model pairs ({!Measure.on_copies}: letters outside
    [V(T) ∪ V(P)] are free).  Dalal, Weber and Satoh are
    {!Measure.entails}.  Borgida is one solve on [¬q] with every
    difference literal off when {!Measure.compatible} holds (decided
    when [entails op m] is applied), and Winslett's test otherwise.
    Winslett and Forbus ask for a counter-model by the CEGAR loop of
    the candidate checks, over model pairs: a witness is a model pair
    [(M, N)] of the session and [¬q] ([N = M] outside [V(P)] by
    Proposition 2.1), refuted as a candidate's witness is, and each
    refutation by [N'] blocks the pairs with [N]'s copy values that
    agree with [N'] on {!refutation_core}, so a query runs at most
    [4^{|V(P)|}] refinements.  The blocks sit in a scope retired when
    the query ends, so an answer never depends on the queries asked
    before it.  No width bound short of [cegar_cap] (default 50_000
    per query, raising {!Cegar_cap_exceeded}), where {!Construct}
    expands [2^{|V(P)|}] and refuses [|V(P)| > 8].  Not domain-safe, as [m]
    is not. *)

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


