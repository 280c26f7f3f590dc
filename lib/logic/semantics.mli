(** SAT-backed semantic operations on formulas.

    Formulas are Tseitin-encoded into the CDCL solver (satsolver).  The
    encoding introduces one auxiliary solver variable per connective
    occurrence, which is transparent here: queries and models are always
    phrased in terms of formula letters.

    Use {!Session} for incremental work: one solver and one encode-once
    memo table survive across queries, queries activate formulas through
    assumptions on their (polarity-complete) Tseitin literals, and
    clause groups that must not outlive a query — blocking clauses, CEGAR
    refinements — are tagged with selector ("activation") literals and
    retired with one unit clause.  The raw {!env} remains the low-level
    substrate.  The convenience predicates spin up a throwaway solver
    (after the {!Clausal} linear-time fast path).

    Instrumentation ({!Revkb_obs}): [sem.env.builds] counts solver
    constructions, [sem.encode.clauses] encoded clauses,
    [sem.encode.cache_hit] memo hits, [sem.session.reuse] queries that
    reused a live session solver, [sem.ladder.probes] cardinality-ladder
    threshold probes; every session query runs in a [sem.query] span,
    every permanent assertion in a [sem.assert] span. *)

type env

exception Enumeration_cap_exceeded of { enumerator : string; cap : int }
(** A model-enumeration walk ([models_sat], [masks_sat] or their
    {!Session} forms) produced more than [cap]
    models.  Raised instead of truncating, so a silent partial model set
    can never flow into a revision. *)

val create : unit -> env

val lit_of_var : env -> Var.t -> Satsolver.Lit.t
(** Solver literal for a formula letter (allocated on first use). *)

val encode : env -> Formula.t -> Satsolver.Lit.t
(** Literal equivalent to the formula (Tseitin, with memoization). *)

val assert_formula : env -> Formula.t -> unit
(** Constrain the formula to be true.  Each top-level conjunct that is a
    clause (an [Or] of literals) becomes one solver clause with no
    auxiliary variable, so it is not memoized for later queries. *)

val solve : ?assumptions:Satsolver.Lit.t list -> env -> bool

val model_on : env -> Var.t list -> Interp.t
(** Projection of the last model onto the given letters. *)

val block : env -> Var.t list -> Interp.t -> unit
(** Forbid every assignment whose projection on the letters equals the
    interpretation: the blocking clause of projected model
    enumeration. *)

(** {1 Cardinality ladder}

    A sequential-counter encoding of the Hamming distance between two
    literal vectors whose {e every} threshold is a solver literal:
    [at_least j] for [j = 0 .. n] out of one linear-size (O(n^2) clause,
    n(n+1)/2 auxiliary) build.  A distance probe ["distance <= k?"] is
    then a single assumption flip on a live solver, where the per-[k]
    [Hamming.exa] path re-Tseitins an O(n*k) formula into a fresh solver
    for every threshold. *)

module Ladder : sig
  type t

  val of_lits : env -> Satsolver.Lit.t list -> t
  (** Counter over the given "difference bit" literals directly. *)

  val of_pairs : env -> (Satsolver.Lit.t * Satsolver.Lit.t) list -> t
  (** Counter over [a_i XOR b_i] difference bits (4 clauses per pair). *)

  val diff_lit : env -> Satsolver.Lit.t * Satsolver.Lit.t -> Satsolver.Lit.t
  (** The difference bit alone: a literal equivalent to [a XOR b].
      Assuming it forces disagreement, assuming its negation forces
      agreement — the building block for sweeps over difference sets. *)

  val exactly : t -> int -> Satsolver.Lit.t list
  (** Assumption pair: at least [k] and at most [k] difference bits
      set. *)

  (** A pinnable comparison vector: the Y side of the distance is a row
      of otherwise-unconstrained literals, so one ladder measures the
      distance to {e any} reference point — pinning Y := N is an
      assumption list, not a new encoding. *)
  type pinned

  val against : env -> Var.t list -> pinned
  (** New Y literals paired with the letters' literals, diff bits, and
      the full ladder, all encoded once. *)

  val ladder : pinned -> t

  val pin : pinned -> Interp.t -> Satsolver.Lit.t list
  (** Assumptions setting Y to the interpretation (over the [against]
      alphabet, in its order). *)

  val pin_mask :
    (module Mask.S with type t = 'm) -> pinned -> 'm -> Satsolver.Lit.t list
  (** Mask-level {!pin}, for either mask representation; bit [i] is
      letter [i] of the [against] list. *)
end

(** {1 Incremental sessions} *)

module Session : sig
  type t

  type scope = Satsolver.Lit.t
  (** A selector (activation) literal guarding a retractable clause
      group. *)

  type stats = { queries : int; scopes_retired : int }

  val create : ?vars:Var.t list -> unit -> t
  (** A new session: one solver, one memo table, for many queries.
      [vars] pre-allocates letter literals. *)

  val env : t -> env
  (** The underlying incremental environment. *)

  val stats : t -> stats

  val assert_always : t -> Formula.t -> unit
  (** Permanent assertion: constrains every later query.  Encoded in a
      [sem.assert] span. *)

  val solve :
    ?scopes:scope list ->
    ?extra:Satsolver.Lit.t list ->
    t ->
    Formula.t list ->
    bool
  (** Satisfiability of the permanent assertions, the given formulas
      (each activated by assumption literals, one per top-level
      conjunct, encoded once), any [extra] assumption literals, and the
      clause groups of the activated [scopes]. *)

  val entails : ?premises:Formula.t list -> t -> Formula.t -> bool
  (** [entails s ~premises q]: do the permanent assertions plus
      [premises] entail [q]?  One {!solve} on [premises @ [not q]], so
      repeated entailment queries against one asserted KB hit the
      Tseitin memo and the accumulated learned clauses. *)

  val mask_on :
    (module Mask.S with type t = 'm) -> t -> Interp_packed.alphabet -> 'm
  (** Projection of the last model onto the alphabet, as a mask. *)

  val new_scope : t -> scope
  (** A new selector literal.  Clauses added under it ({!block},
      {!block_mask}) bind only queries that activate the scope. *)

  val block : t -> scope -> Var.t list -> Interp.t -> unit

  val block_mask :
    (module Mask.S with type t = 'm) ->
    ?on:'m ->
    t ->
    scope ->
    Interp_packed.alphabet ->
    'm ->
    unit
  (** [block_mask m ?on s sel alpha mask]: under [sel], exclude every
      model that agrees with [mask] on the letters whose bits are set in
      [on] (default: the whole alphabet, the mask-level {!block}); the
      clause has one literal per such letter. *)

  val retire : t -> scope -> unit
  (** Permanently deactivate the scope (unit clause on the negated
      selector): its clauses can never constrain a query again. *)

  val with_retractable : t -> (scope -> 'a) -> 'a
  (** [with_retractable s k]: run [k] on a {!new_scope} and {!retire}
      it when [k] returns or raises, so nothing [k] adds under the scope
      stays live in the session. *)

  val within :
    ?assume:Satsolver.Lit.t list -> t -> Formula.t list -> Ladder.t -> int -> bool
  (** [within s fs lad k]: satisfiable with at most [k] ladder diff bits
      set?  One assumption flip ([sem.ladder.probes]). *)

  val min_distance :
    ?assume:Satsolver.Lit.t list -> t -> Formula.t list -> Ladder.t -> int option
  (** Smallest [k] with [within s fs lad k], or [None] when [fs] (with
      [assume]) is unsatisfiable.  The unsatisfiability pre-check is the
      first, threshold-free query of the same session, so the formulas
      are encoded exactly once for the whole sweep. *)

  val closer_than :
    ?assume:Satsolver.Lit.t list -> t -> Formula.t list -> Ladder.t -> int -> bool
  (** [closer_than s fs lad d]: is there a model at distance strictly
      below [d]?  [false] when [d <= 0]; otherwise one probe. *)

  val models : ?cap:int -> t -> Var.t list -> Formula.t -> Interp.t list
  (** Projected model enumeration inside the session: blocking clauses
      live in a retractable scope, so several enumerations can share one
      session without contaminating each other. *)

  val masks :
    (module Mask.S with type t = 'm) ->
    ?cap:int ->
    t ->
    Interp_packed.alphabet ->
    Formula.t ->
    'm array
  (** Mask-level {!models}, read off as sorted masks of the given
      representation.  Raises [Invalid_argument] when the alphabet does
      not fit it ({!Mask.S.fits}: one-word masks past
      {!Interp_packed.max_letters} letters). *)

  val count_masks :
    ?cap:int -> t -> Interp_packed.alphabet -> Formula.t list -> int
  (** Model count of the permanent assertions and the given premises
      (none, on a session that asserts its KB) by the blocking walk,
      tallying instead of storing.
      Raises [Invalid_argument] past [cap] (default 1_000_000) with an
      actionable message — truncation is never silent. *)
end

(** {1 One-shot queries} *)

val is_sat : Formula.t -> bool
(** Satisfiability.  Syntactic Horn / dual-Horn / Krom CNFs are settled
    by the linear-time deciders of {!Clausal} (observable via
    {!Clausal.stats}); everything else goes to the CDCL solver. *)

val is_sat_cdcl : Formula.t -> bool
(** {!is_sat} without the clausal fast path: always Tseitin-encode and
    solve.  The differential oracle for the fast path's tests. *)

val is_valid : Formula.t -> bool

val entails : Formula.t -> Formula.t -> bool
(** Each direction consults the clausal fast path on the conjunction
    [a /\ ~b]; the CDCL fallback activates [a] and [~b] by assumption
    instead of re-Tseitining a negated rebuild. *)

val equiv : Formula.t -> Formula.t -> bool
(** Both CDCL directions share one session: the second direction reuses
    the first's encodings and learned clauses. *)

val masks_sat :
  (module Mask.S with type t = 'm) ->
  ?cap:int ->
  Interp_packed.alphabet ->
  Formula.t ->
  'm array
(** Mask-level {!models_sat}: walk the models of the Tseitin-encoded
    formula with blocking clauses on the incremental CDCL solver, reading
    each model off as a mask of the given representation.  This is the
    enumerator behind {!Models.enumerate} for alphabets past the
    brute-force cutover.  Same width check as {!Session.masks}; raises
    {!Enumeration_cap_exceeded} at [cap] (default 1_000_000) so
    truncation is never silent. *)

val count_sat : ?cap:int -> Interp_packed.alphabet -> Formula.t -> int
(** One-shot {!Session.count_masks}: model count over the alphabet by
    the SAT blocking walk, never materializing the model set.  This is
    what {!Models.count} runs past its brute-force cutover. *)

val models_sat : ?cap:int -> Var.t list -> Formula.t -> Interp.t list
(** All distinct projections onto the given letters of models of the
    formula, found by iterated SAT with blocking clauses.  When the
    formula's letters are all included this is exactly its model set; with
    a sub-alphabet it is the projected model set used by query-equivalence
    checks.  [cap] (default 1_000_000) bounds the enumeration; raises
    {!Enumeration_cap_exceeded} if hit, so truncation can never be
    silent. *)

val query_equivalent : Var.t list -> Formula.t -> Formula.t -> bool
(** [query_equivalent alphabet a b]: do [a] and [b] have the same
    consequences over the alphabet (criterion (1) of the paper)?  Decided
    by comparing projected model sets, both enumerated on one shared
    session (scoped blocking clauses, shared encodings). *)

(** Compile-once query route: build the KB's ROBDD one time and answer
    every subsequent entailment/equivalence query in time linear in the
    diagram, instead of paying a SAT solve per query.  The third oracle
    beside the brute-force sweeps and the SAT sessions. *)
module Compiled : sig
  type t

  val compile : ?order:Var.t list -> Formula.t -> t
  (** Compile a KB.  [order] fixes the variable-order prefix (letters of
      the formula missing from it are appended at the bottom); without it
      the FORCE heuristic ({!Bdd.force_order}) picks a structural order.
      A Rudell sifting pass is an explicit {!Bdd.sift} on {!manager}. *)

  val manager : t -> Bdd.manager
  val root : t -> Bdd.node
  val size : t -> int
  (** Diagram node count — the compiled-size metric reported by
      [revkb compile] and the compilation bench. *)

  val order : t -> Var.t list
  val sat : t -> bool

  val entails : t -> Formula.t -> bool
  (** Linear in the diagrams; query letters outside the compiled
      alphabet are appended below it, which never disturbs the KB. *)

  val equivalent : t -> Formula.t -> bool
  (** Canonicity makes this a root comparison after compiling the
      query. *)

  val ask : t -> Interp.t -> bool
  val count : t -> int
  (** Model count over the alphabet the KB was compiled with. *)
end
