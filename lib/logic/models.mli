(** Model enumeration over an explicit alphabet.

    Model-based revision operators are defined on the full model sets of
    [T] and [P] over their joint alphabet; this module materializes those
    sets.  Two engines sit behind the one API, selected automatically by
    alphabet size:

    - at most {!sat_cutover} letters: a packed truth-table sweep — the
      formula is compiled to a bit-sliced block kernel
      ({!Interp_packed.compile}) that decides 32 masks per word
      operation, and all [2^n] masks are swept;
    - beyond the cutover: a SAT-backed enumerator that walks the models of
      the Tseitin-encoded formula via blocking clauses on the incremental
      CDCL solver ({!Semantics.masks_sat} /
      {!Semantics.masks_sat_wide}), so formulas with small model
      sets over large alphabets (even past the 25-letter brute-force cap)
      enumerate in time proportional to the answer.

    Alphabets past {!Interp_packed.max_letters} letters route through the
    {!Interp_wide} multi-word engine ({!enumerate_wide}) — there is no
    width ceiling and no legacy fallback.  The original list-based engine
    survives in {!Legacy} as the reference implementation for
    differential tests and old-vs-new benchmarks; every entry into it
    bumps the [models.fallback.legacy] counter (and notes it once on
    stderr under [--stats]). *)

val alphabet_of : Formula.t list -> Var.t list
(** Sorted joint alphabet of a list of formulas. *)

val sat_cutover : int
(** Alphabet size above which enumeration switches from the packed
    [2^n] sweep to SAT-backed model walking (currently 20). *)

val enumerate : Var.t list -> Formula.t -> Interp.t list
(** All models of the formula over the given alphabet (which must contain
    the formula's own letters).  Beyond {!sat_cutover} letters the result
    order is [Var.Set.compare]-sorted rather than counter order, and the
    SAT walk's 1M-model cap applies ({!Semantics.models_sat}). *)

val enumerate_packed :
  ?cap:int -> Interp_packed.alphabet -> Formula.t -> Interp_packed.set
(** Packed-native [enumerate]: the hot pipeline's entry point when the
    alphabet fits one word ({!Interp_packed.fits}).  [cap] bounds the
    SAT walk (ignored by the sweep). *)

val enumerate_wide :
  ?cap:int -> Interp_packed.alphabet -> Formula.t -> Interp_wide.set
(** Multi-word [enumerate]: the pipeline's entry point past
    {!Interp_packed.max_letters} letters (works at any width).  Below
    the cutover the one-word sweep runs and its masks widen; above it
    the SAT walk reads wide masks directly
    ({!Semantics.masks_sat_wide}). *)

val count : ?cap:int -> Var.t list -> Formula.t -> int
(** Model count over the alphabet without materializing the model set: at
    most {!sat_cutover} letters, a popcount per 32-assignment block of
    the bit-sliced sweep ({!Interp_packed.count}: chunked across the
    pool, no model unpacked).
    Above the cutover one SAT call settles the zero case; otherwise the
    blocking-clause walk tallies models without storing them
    ({!Semantics.count_sat}), bounded by [cap] (default 1_000_000) —
    past the cap it raises an actionable [Invalid_argument] instead of
    walking an astronomical model set to completion. *)

val equivalent_on : Var.t list -> Formula.t -> Formula.t -> bool
(** Logical equivalence over the alphabet: below the cutover a packed
    sweep of [a xor b] that stops at the first block where they differ,
    SAT equivalence above it.  Letters outside the alphabet read false
    in both formulas. *)

val entails_on : Var.t list -> Formula.t -> Formula.t -> bool
(** Entailment over the alphabet: below the cutover a packed sweep of
    [a & ~b] that stops at the first counter-model block, SAT
    entailment above it. *)

val project : Var.Set.t -> Interp.t list -> Interp.t list
(** Project a model list onto a sub-alphabet, deduplicating — the model-set
    image used by query-equivalence checks. *)

val dnf_of_models : Var.t list -> Interp.t list -> Formula.t
(** The naive representation: disjunction of minterms.  This is the
    "completely naive storage organization" whose size Winslett's
    conjecture (Section 3.1) is about. *)

(** The original [Var.Set.t]-list engine: a filtered {!Interp.subsets}
    sweep, capped at 25 letters.  Kept verbatim so property tests can
    assert the packed engines agree with it and benchmarks can report the
    speedup.  Not reachable from any production path: each call bumps
    the [models.fallback.legacy] counter, and under [--stats] the first
    call notes itself on stderr. *)
module Legacy : sig
  val enumerate : Var.t list -> Formula.t -> Interp.t list
  val equivalent_on : Var.t list -> Formula.t -> Formula.t -> bool
  val entails_on : Var.t list -> Formula.t -> Formula.t -> bool
end
