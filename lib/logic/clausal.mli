(** Structural clausal view and linear-time fragment SAT decisions.

    The paper measures knowledge bases syntactically; this module reads
    formulas the same way.  {!view} recognizes formulas that {e are}
    CNF — no distribution, no Tseitin letters — and the deciders settle
    satisfiability of the tractable clausal fragments without touching
    the CDCL solver:

    - {b Horn} (≤ 1 positive literal per clause): unit propagation to the
      minimal model, linear in the number of literal occurrences;
    - {b dual-Horn} (≤ 1 negative literal): sign-flip to Horn;
    - {b Krom / 2-CNF} (≤ 2 literals): implication-graph strongly
      connected components (Tarjan), linear time.

    {!decide_sat} is the fast path consulted by {!Semantics.is_sat}
    before a solver is ever created; hit counters make the routing
    observable from tests and benchmarks.  Classification into the full
    fragment taxonomy (affine, monotone, unate, ...) lives one layer up,
    in the [revkb_analysis] library. *)

val view : Formula.t -> Cnf.t option
(** [view f] is [Some clauses] when [f] is syntactically a conjunction
    of clauses (a clause being a disjunction of literals, a single
    literal, or a rule [l1 & ... & lk -> c] whose body literals flip
    sign and join the head clause — so Horn theories written with [->]
    are recognized as-is) and [None] otherwise.  Purely structural:
    costs one traversal, never expands.  [True] maps to [[]], [False]
    to [[[]]]; constant clause members fold the way the smart
    constructors would. *)

val is_horn : Cnf.t -> bool
(** ≤ 1 positive literal per clause (same predicate as {!Horn.is_horn},
    re-exported here so the fast path is self-contained). *)

val is_dual_horn : Cnf.t -> bool
(** ≤ 1 negative literal per clause. *)

val is_krom : Cnf.t -> bool
(** ≤ 2 literals per clause (2-CNF). *)

(* lint: iface-ok test_analysis holds the three deciders decide_sat runs
   against CDCL *)
val horn_sat : Cnf.t -> bool
(** Unit-propagation decision for Horn CNF.  Requires [is_horn];
    raises [Invalid_argument] otherwise.  Linear in the number of
    literal occurrences. *)

(* lint: iface-ok test_analysis, as horn_sat *)
val dual_horn_sat : Cnf.t -> bool
(** Horn decision on the sign-mirrored CNF ([f] is satisfiable iff its
    variable-wise negation is).  Requires [is_dual_horn]. *)

(* lint: iface-ok test_analysis, as horn_sat *)
val krom_sat : Cnf.t -> bool
(** 2-SAT via implication-graph SCCs.  Requires [is_krom]. *)

type route = Horn | Dual_horn | Krom
(** Which decider settled a {!decide_sat} query. *)

val decide_sat : Formula.t -> (bool * route) option
(** [decide_sat f]: if [f] is syntactic CNF in one of the three
    fragments, its satisfiability and the deciding fragment; [None]
    when the formula needs a real solver.  Horn is preferred over
    dual-Horn over Krom when a CNF lies in several fragments. *)

(** {1 Fast-path instrumentation}

    {!Semantics.is_sat} consults {!decide_sat} first; the [Revkb_obs]
    counters [sat.route.horn] / [sat.route.dual_horn] / [sat.route.krom]
    record how often the linear deciders answered, so a [--stats]
    snapshot reports them. *)

val record_hit : route -> unit
(** Bump the counter for a route ({!Semantics.is_sat} calls this; it is
    exposed so alternative entry points can keep the books honest). *)
