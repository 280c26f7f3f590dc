(** SAT-based model checking [M |= T * P] (the Section 2.2.4 decision
    problem), without enumerating model sets.

    The paper points at Liberatore-Schaerf for the complexity of this
    problem; the implementations here mirror those upper bounds:

    - {b Dalal}: [N |= P] and [dist(N, T) = k_{T,P}].  Computing [k] is
      a logarithmic-ish number of NP probes (we probe linearly; the
      binary-search variant only changes the constant), matching
      Δ₂[O(log n)]; the candidate is then one more, [dist(N, T) <= k],
      because [dist(N, T) >= k] for every [N |= P].  That probe pins
      its model [X] of [T] to [N] outside [V(P)] and counts [V(P)]
      only: flipping a letter [z ∉ V(P)] of [N] to [X(z)] would keep
      [P] true at distance [k - 1 < k_{T,P}], so a nearest [X] agrees
      with [N] there.
    - {b Weber}: one probe [T ∧ (x = N(x) for x ∉ Ω)] after computing
      [Ω].
    - {b Satoh}: [δ(T, P)] has at most [2^{|V(P)|}] members, each [⊆ V(P)],
      and [N Δ M = S] pins [M = N Δ S] — so the check is an evaluation per
      member of δ.
    - {b Winslett / Forbus}: genuinely Σ₂-flavoured; a CEGAR loop guesses
      a witness [M |= T] and refutes the minimality of [N Δ M] with a
      P-model [N'] closer to [M].  By Proposition 2.1 a witness that
      selects [N] agrees with [N] outside [V(P)] (flipping such a letter
      of [N] keeps [P] and moves [N] strictly closer to [M]), so the
      witnesses are pinned to [N] there, and [N'] takes [M]'s values
      there; the witnesses, refuters and Forbus's cardinality ladder
      span [V(P)] only.  A candidate therefore costs at most
      [2^{|V(P)|}] refinements, a constant for bounded [P] however
      large [T] is.  Each refutation blocks every witness
      that agrees with [N'] on [A = (N' Δ N) \ (M Δ N')]
      ({!refutation_core}): under inclusion [A] is all of [N' Δ N] and
      such an [M'] has [M' Δ N' = (M' Δ N) \ A ⊊ M' Δ N]; under
      cardinality [M] sides with [N'] on a strict majority of
      [D = N' Δ N], so [|M' Δ N'| - |M' Δ N| <= |D \ A| - |A| < 0].
      The loop is capped; hitting the cap raises rather than guessing.
    - {b Borgida}: evaluation when [T ∧ P] is satisfiable, Winslett
      (local to [V(P)] as above) otherwise.

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
    [Invalid_argument] otherwise, unless [ns] is empty); [T]'s
    decision is the handle's, taken before the pool fans out.  The per-(T, P)
    setup runs once and each candidate pays only for itself: Dalal
    computes k_{T,P} and asks one [dist(N, T) <= k] probe per candidate
    [N |= P] on one {!Dist} prober per pool chunk (its ladder over
    [V(P)]), Weber computes Ω(T, P) and shares a session with [T]
    asserted, Satoh reduces to a pure evaluation over δ(T, P) — all
    three from one {!Measure} — and the CEGAR operators share one
    session per chunk, with Forbus's one pinnable ladder over [V(P)]
    and Borgida's one T ∧ P decision.  Every clause a candidate adds
    sits in a scope retired when it ends.  Chunks are fanned across the
    {!Revkb_parallel.Pool.global} work pool.  Answers are returned in
    candidate order and are identical at every job count.
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


