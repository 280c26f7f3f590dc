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
      CDCL solver ({!Semantics.masks_sat}), so formulas with small model
      sets over large alphabets (even past the 25-letter brute-force cap)
      enumerate in time proportional to the answer.

    Both engines produce masks of either representation ({!Mask.S}):
    one-word {!Interp_packed} masks, or multi-word {!Interp_wide} masks
    past {!Interp_packed.max_letters} letters — there is no width
    ceiling.  The list-based reference engine used by the differential
    tests lives outside the library, in the test oracle. *)

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

val enumerate_masks :
  (module Mask.S with type t = 'm) ->
  ?cap:int ->
  Interp_packed.alphabet ->
  Formula.t ->
  'm array
(** Mask-level [enumerate], in the given representation: below the
    cutover the one-word sweep runs and its masks convert
    ({!Mask.S.of_packed}); above it the SAT walk reads masks directly
    ({!Semantics.masks_sat}).  [cap] bounds the SAT walk (ignored by
    the sweep). *)

val enumerate_packed :
  ?cap:int -> Interp_packed.alphabet -> Formula.t -> Interp_packed.set
(** [enumerate_masks (module Mask.Packed)]: the hot pipeline's entry
    point when the alphabet fits one word ({!Interp_packed.fits}). *)

val enumerate_wide :
  ?cap:int -> Interp_packed.alphabet -> Formula.t -> Interp_wide.set
(** [enumerate_masks (module Mask.Wide)]: works at any width. *)

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
