(** The analyzer front door: one call that gathers metrics, fragment
    membership, a simplified form, and a satisfiability verdict routed
    through the cheapest applicable decision procedure.  Powers the
    [revkb analyze] subcommand and the metrics hooks in
    {!Compact.Verify}. *)

open Logic

type t = {
  formula : Formula.t;
  metrics : Metrics.t;
  fragment : Fragments.t;
  simplified : Formula.t;  (** {!Simplifier.simplify} output (equivalent) *)
  sat : bool;
  sat_method : string;
      (** which decision procedure answered: ["horn unit propagation"],
          ["dual-horn unit propagation"], ["2-sat scc"],
          ["gf(2) elimination"], ["monotone endpoint"],
          ["antitone endpoint"] or ["cdcl"] *)
}

(* lint: iface-ok test_analysis checks the routing against CDCL *)
val decide_sat : Formula.t -> bool * string
(** The routing alone: linear deciders for Horn/dual-Horn/Krom CNF,
    Gaussian elimination for affine systems, endpoint evaluation for
    monotone/antitone formulas, CDCL otherwise.  Pure — does not touch
    the {!Clausal} fast-path counters. *)

val analyze : Formula.t -> t

val pp : Format.formatter -> t -> unit
(** The [revkb analyze] rendering: metrics block, fragment list,
    simplified size, satisfiability + method. *)
