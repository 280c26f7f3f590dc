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
    width ceiling).  The [Var.Set.t] API below is a thin wrapper: inputs
    are packed over their joint alphabet, measured by the engine
    {!Logic.Mask.by_width} picks, and unpacked. *)

open Logic

val mu : Interp.t -> Interp.t list -> Var.Set.t list
(** [mu m p_models] is the paper's [µ(M, P)]: the inclusion-minimal
    symmetric differences between [m] and the models of [P]. *)

val k_pointwise : Interp.t -> Interp.t list -> int
(** [k_{M,P}]: minimum cardinality of a difference between [m] and a model
    of [P]. *)

val delta : Interp.t list -> Interp.t list -> Var.Set.t list
(** [delta t_models p_models] is [δ(T, P) = minc ∪_{M |= T} µ(M, P)]. *)

val k_global : Interp.t list -> Interp.t list -> int
(** [k_{T,P}]: minimum cardinality over [δ(T,P)] — equivalently the
    minimum Hamming distance between a model of [T] and a model of [P]. *)

val omega : Interp.t list -> Interp.t list -> Var.Set.t
(** [Ω = ∪ δ(T, P)]: every letter appearing in at least one minimal
    difference (Weber's revision). *)

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
