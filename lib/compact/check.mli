(** SAT-based model checking [M |= T * P] (the Section 2.2.4 decision
    problem), without enumerating model sets.

    The paper points at Liberatore-Schaerf for the complexity of this
    problem; the implementations here mirror those upper bounds:

    Every solver question is asked on a {!Measure} session, which
    holds [T ∧ P[V(P)/Y]] with one difference literal per letter of
    [V(P)] (Proposition 2.1 puts every minimal difference there):

    - {b Dalal}: [N |= P] and [dist(N, T) = k_{T,P}].  Computing [k] is
      a logarithmic-ish number of NP probes (we probe linearly; the
      binary-search variant only changes the constant), matching
      Δ₂[O(log n)]; the candidate is then one more, [dist(N, T) <= k],
      because [dist(N, T) >= k] for every [N |= P].  That probe is one
      ladder threshold on the measure's session with [P]'s copies and
      [T]'s letters outside [V(P)] pinned to [N]: flipping a letter
      [z ∉ V(P)] of [N] to a model [X] of [T]'s value would keep [P]
      true at distance [k - 1 < k_{T,P}], so a nearest [X] agrees with
      [N] there.
    - {b Weber}: one solve after computing [Ω], pinned as Dalal's
      probe, with the difference literals outside [Ω] off.
    - {b Satoh}: [δ(T, P)] has at most [2^{|V(P)|}] members, each [⊆ V(P)],
      and [N Δ M = S] pins [M = N Δ S] — so the check is an evaluation per
      member of δ.
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
    - {b Borgida}: evaluation when [T ∧ P] is satisfiable (one solve
      with every difference literal off), Winslett otherwise.

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

val model_check_batch :
  ?cegar_cap:int ->
  Revision.Model_based.op ->
  Kb.t ->
  Formula.t ->
  Interp.t list ->
  bool list
(** [model_check_batch op kb p ns]: does each interpretation of [ns]
    (over [V(T) ∪ V(P)]; letters outside it are ignored) satisfy
    [T * P]?  Requires [T] and [p] satisfiable (raises
    [Invalid_argument] otherwise, unless [ns] is empty).  Candidates
    are fanned across the {!Revkb_parallel.Pool.global} work pool in
    chunks, and each chunk asks all its questions on one {!Measure}
    of its own: Dalal's chunk computes k_{T,P} on it and asks one
    probe per candidate [N |= P]; Weber's asks one solve per
    candidate, with Ω computed once on a measure of the calling
    domain, as Satoh's δ is, after which Satoh is a pure evaluation;
    the CEGAR operators run their witness loops on it, with one
    ladder and one Borgida T ∧ P decision per chunk.  So at one job a
    Dalal or Satoh batch builds one solver, a Weber batch two, and a
    CEGAR batch one besides its guard: the CEGAR operators decide [T]
    (through the handle) and [p] on the calling domain first, which
    builds a solver only for a side past {!Logic.Clausal}'s fast path.
    Dalal's chunks take both decisions from their measures.  Every clause a candidate adds sits in a
    scope retired when it ends.  Answers are returned in candidate
    order and are identical at every job count.
    [cegar_cap] (default 50_000) bounds the Winslett/Forbus witness
    loop; exceeding it raises {!Cegar_cap_exceeded}. *)

val model_check :
  ?cegar_cap:int ->
  Revision.Model_based.op ->
  Formula.t ->
  Formula.t ->
  Interp.t ->
  bool
(** {!model_check_batch} on one candidate, with a handle built on the
    spot for [T]. *)

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


