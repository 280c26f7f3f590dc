(** Growth-order fitting for size sweeps.

    The size audit measures a construction at a handful of parameter
    points and must decide: does this look like the polynomial the
    paper's YES entries promise, or like the exponential blow-up of the
    hardness families?  Both hypotheses are fit by least squares —
    [log v] against [log n] (polynomial: the slope is the degree) and
    [log v] against [n] (exponential: the slope is the rate) — and the
    verdict goes to the hypothesis with the better coefficient of
    determination.  Crude, but honest at bench scale, and symmetric: a
    polynomial family misclassified as exponential fails the audit just
    as loudly as the converse. *)

type verdict =
  | Polynomial of float  (** fitted degree *)
  | Superpolynomial of float  (** fitted rate: size × e^rate per +1 of n *)

val classify_points : (float * float) list -> verdict
(** Verdict on [(n, v)] points; needs ≥ 3 points, [n > 0]; values are
    clamped to ≥ 1 before taking logs.  Raises [Invalid_argument] on
    fewer points. *)

val pp_verdict : Format.formatter -> verdict -> unit
(** ["polynomial (deg 1.9)"] / ["superpolynomial (x2.1 per step)"]. *)
