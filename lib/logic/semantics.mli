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
    retired with one unit clause.  A session's {!env} is the low-level
    substrate: letter literals, Tseitin literals, model readout.  The
    convenience predicates spin up a throwaway solver
    (after the {!Clausal} linear-time fast path).

    Instrumentation ({!Revkb_obs}): [sem.env.builds] counts solver
    constructions, [sem.env.copies] session copies ({!Session.copy}),
    [sem.encode.clauses] encoded clauses,
    [sem.encode.cache_hit] memo hits, [sem.session.reuse] queries that
    reused a live session solver, [sem.ladder.probes] cardinality-ladder
    threshold probes; every session query runs in a [sem.query] span,
    every permanent assertion in a [sem.assert] span. *)

type env

exception Enumeration_cap_exceeded of { enumerator : string; cap : int }
(** A model-enumeration walk ([masks_sat], {!Session.masks} or the
    counting walk {!Session.count_masks}) produced more than [cap]
    models, or {!Session.maximal_subsets} more than [cap] sets.  Raised
    instead of truncating, so a silent partial model set can never flow
    into a revision. *)

val lit_of_var : env -> Var.t -> Satsolver.Lit.t
(** Solver literal for a formula letter (allocated on first use). *)

val encode : env -> Formula.t -> Satsolver.Lit.t
(** Literal equivalent to the formula (Tseitin, with memoization): as an
    [~extra] assumption of {!Session.solve} it asserts the formula. *)

val model_on : env -> Var.t list -> Interp.t
(** Projection of the last model onto the given letters. *)

(* lint: iface-ok test/oracle/fresh.ml's own model walk, apart from masks *)
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
    for every threshold.  The two vectors are the caller's: when it
    pins one of them by assumptions, the reference point is part of
    the assumption set, and one ladder measures the distance to each
    reference point in turn ([Compact.Measure] pins its copies to a
    candidate, [Compact.Check] its letters to a witness). *)

module Ladder : sig
  type t

  val of_lits : env -> Satsolver.Lit.t list -> t
  (** Counter over the given "difference bit" literals directly. *)

  val diff_lit : env -> Satsolver.Lit.t * Satsolver.Lit.t -> Satsolver.Lit.t
  (** The difference bit alone: a literal equivalent to [a XOR b].
      Assuming it forces disagreement, assuming its negation forces
      agreement — the building block for sweeps over difference sets. *)
end

(** {1 Incremental sessions} *)

module Session : sig
  type t

  type scope = Satsolver.Lit.t
  (** A selector (activation) literal guarding a retractable clause
      group. *)

  val create : ?vars:Var.t list -> unit -> t
  (** A new session: one solver, one memo table, for many queries.
      [vars] pre-allocates letter literals. *)

  val copy : t -> t
  (** An independent session holding what [s] holds: a copy of its
      solver ({!Satsolver.Solver.copy}: clauses, learnt clauses, search
      state) and of its encodings.  Assertions, scopes and blocking
      clauses added to either never reach the other.  Counted as
      [sem.env.copies], not as a build. *)

  val env : t -> env
  (** The underlying incremental environment. *)

  val assert_always : t -> Formula.t -> unit
  (** Permanent assertion: constrains every later query.  Encoded in a
      [sem.assert] span; a top-level conjunct that is a clause becomes
      one solver clause, with no auxiliary. *)

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

  val mask_on :
    (module Mask.S with type t = 'm) -> t -> Interp_packed.alphabet -> 'm
  (** Projection of the last model onto the alphabet, as a mask. *)

  (* lint: iface-ok test_session's retract case drives scopes by hand *)
  val new_scope : t -> scope
  (** A new selector literal.  Clauses added under it ({!block_mask})
      bind only queries that activate the scope. *)

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
      [on] (default: the whole alphabet); the clause has one literal
      per such letter. *)

  (* lint: iface-ok test_session's retract case drives scopes by hand *)
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

  val closer_than :
    ?assume:Satsolver.Lit.t list -> t -> Formula.t list -> Ladder.t -> int -> bool
  (** [closer_than s fs lad d]: is there a model at distance strictly
      below [d]?  [false] when [d <= 0]; otherwise one probe. *)

  val masks :
    (module Mask.S with type t = 'm) ->
    ?cap:int ->
    t ->
    Interp_packed.alphabet ->
    Formula.t ->
    'm array
  (** Projected model enumeration inside the session, read off as
      sorted masks of the given representation: blocking clauses live
      in a retractable scope, so several enumerations can share one
      session without contaminating each other.  Raises [Invalid_argument] when the alphabet does
      not fit it ({!Mask.S.fits}: one-word masks past
      {!Interp_packed.max_letters} letters). *)

  val maximal_subsets : ?cap:int -> t -> Satsolver.Lit.t list -> int list list
  (** [maximal_subsets s lits]: the inclusion-maximal subsets of [lits]
      satisfiable with the permanent assertions, as ascending positions
      in [lits], in the order found.  A set costs one solve for its seed
      model and at most one per literal the seed leaves false, and one
      unsatisfiable solve ends the walk; its blocking clauses live in a
      retractable scope, as {!masks}'s do.  Raises
      {!Enumeration_cap_exceeded} past [cap] sets (default 1_000_000). *)

  val count_masks :
    ?cap:int -> t -> Interp_packed.alphabet -> Formula.t list -> int
  (** Model count of the permanent assertions and the given premises
      (none, on a session that asserts its KB) by the blocking walk,
      tallying instead of storing.
      Raises {!Enumeration_cap_exceeded} past [cap] (default 1_000_000):
      truncation is never silent. *)
end

(** {1 One-shot queries} *)

val is_sat : Formula.t -> bool
(** Satisfiability.  Syntactic Horn / dual-Horn / Krom CNFs are settled
    by the linear-time deciders of {!Clausal} (observable via
    the [sat.route.*] counters); everything else goes to the CDCL solver. *)

val is_sat_cdcl : Formula.t -> bool
(** {!is_sat} without the clausal fast path: always Tseitin-encode and
    solve.  The differential oracle for the fast path's tests. *)

val entails : Formula.t -> Formula.t -> bool
(** Consults the clausal fast path on the conjunction
    [a /\ ~b]; the CDCL fallback activates [a] and [~b] by assumption
    instead of re-Tseitining a negated rebuild. *)

val masks_sat :
  (module Mask.S with type t = 'm) ->
  ?cap:int ->
  Interp_packed.alphabet ->
  Formula.t ->
  'm array
(** All distinct projections onto the alphabet of models of the
    formula: walk the models of the Tseitin-encoded formula with blocking
    clauses on the incremental CDCL solver, reading each model off as a
    mask of the given representation.  This is the
    enumerator behind {!Models.enumerate} for alphabets past the
    brute-force cutover.  Same width check as {!Session.masks}; raises
    {!Enumeration_cap_exceeded} at [cap] (default 1_000_000) so
    truncation is never silent. *)

val count_sat : ?cap:int -> Interp_packed.alphabet -> Formula.t -> int
(** One-shot {!Session.count_masks}: model count over the alphabet by
    the SAT blocking walk, never materializing the model set.  This is
    what {!Models.count} runs past its brute-force cutover. *)

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

  val entails : t -> Formula.t -> bool
  (** Linear in the diagrams; query letters outside the compiled
      alphabet are appended below it, which never disturbs the KB. *)

  val count : t -> int
  (** Model count over the alphabet the KB was compiled with. *)
end
