(** Distance machinery shared by the model-based operators (Section 2.2.2).

    Throughout, models are identified with the sets of letters they make
    true, and distances are symmetric differences of such sets.

    {b Contract (uniform across every function here):} model sets must be
    nonempty.  [mu]/[k_pointwise] raise [Invalid_argument] when [P] has no
    models; [delta]/[k_global]/[omega] when either side is empty.  The
    paper assumes satisfiable [T] and [P]; {!Model_based.select} handles
    the degenerate cases before any distance is measured, so these guards
    only trip on misuse.

    The measures are written once, as {!Make} over the {!Logic.Mask.S}
    signature, and applied to both mask representations: {!Packed}
    (one [int] per model, the fast case) and {!Wide} (multi-word, no
    width ceiling).  Callers pack their model sets over one alphabet and
    pick the engine with {!Logic.Mask.by_width}.

    In the paper's notation:
    - [mu m p] is [µ(M, P)], the inclusion-minimal symmetric
      differences between [m] and the models of [P];
    - [k_pointwise m p] is [k_{M,P}], the least cardinality of such a
      difference;
    - [delta t p] is [δ(T, P) = minc ∪_{M |= T} µ(M, P)];
    - [k_global t p] is [k_{T,P}], the least cardinality over [δ(T,P)]
      (the minimum Hamming distance between a model of [T] and one of
      [P]);
    - [omega t p] is [Ω = ∪ δ(T, P)], every letter in some minimal
      difference (Weber's revision). *)

open Logic

(** A distance engine over one mask representation.  [delta],
    [k_global] and [omega] are streaming reductions: chunks of [Mod(T)]
    fold into per-domain min-inclusion frontiers ({!Mask.S.Frontier})
    or running minima, merged at the barrier — the [|Mod(T)|·|Mod(P)|]
    candidate array is never materialized, and results are
    bit-identical at every job count.  Same nonempty contract as
    above. *)
module type S = sig
  module M : Mask.S

  val mu : M.t -> M.set -> M.set
  val k_pointwise : M.t -> M.set -> int
  val delta : M.set -> M.set -> M.set
  val k_global : M.set -> M.set -> int
  val omega : M.set -> M.set -> M.t
end

module Make (M : Mask.S) : S with module M = M

module Packed : S with module M = Mask.Packed
(** One-word masks over a shared {!Interp_packed.alphabet}: symmetric
    difference is [lxor], Hamming distance popcount. *)

module Wide : S with module M = Mask.Wide
(** Multi-word masks ({!Interp_wide}): no width ceiling. *)
