(** A CDCL SAT solver.

    Conflict-driven clause learning with two-watched-literal propagation,
    VSIDS variable activity, first-UIP clause learning, phase saving, Luby
    restarts and activity-based learnt-clause deletion.  The solver is
    incremental: clauses may be added between [solve] calls (used for
    blocking-clause model enumeration) and [solve] accepts assumptions.

    Variables are dense non-negative integers allocated by {!new_var} or
    implicitly by {!add_clause}. *)

type t

val create : unit -> t

val copy : t -> t
(** An independent solver with the same clauses, learnt clauses
    included, the same top-level facts and the same search state
    (variable activities and order, saved phases, last model): what
    either adds or learns later never reaches the other.  Its
    {!stats} start at zero. *)

val new_var : t -> int
(** Allocate a fresh variable and return its index. *)

val ensure_nvars : t -> int -> unit
(** Make sure variables [0 .. n-1] exist. *)

val add_clause : t -> Lit.t list -> unit
(** Add a clause (a disjunction of literals).  Adding the empty clause, or a
    clause that closes a top-level conflict, makes the solver permanently
    unsatisfiable. *)

(* lint: iface-ok test_sat checks it against a list reference *)
val simplify : t -> Lit.t list -> Lit.t array option
(** The clause {!add_clause} stores for these literals, given the
    top-level assignment (the solver is first backtracked to level 0):
    sorted, duplicate-free, with false literals removed; [None] when the
    clause is a tautology or already has a true literal.  {!add_clause}
    turns an empty result into permanent unsatisfiability and a
    singleton into a top-level unit. *)

val solve : ?assumptions:Lit.t list -> t -> bool
(** [solve s] is [true] iff the current clause set is satisfiable (under the
    given assumptions).  After [true], {!value} and {!model} read the
    satisfying assignment. *)

val value : t -> Lit.t -> bool
(** Value of a literal in the last model.  Unconstrained variables read
    [false] for the positive literal.  Only meaningful after [solve]
    returned [true]. *)

val model : t -> bool array
(** Snapshot of the last model, indexed by variable. *)

(* lint: iface-ok test_sat reads top-level unsatisfiability off it *)
val ok : t -> bool
(** [false] once the clause set has been proved unsatisfiable at top
    level. *)

(** {1 Statistics}

    Counters are cumulative over the solver's lifetime and monotone
    across [solve] calls.  Each [solve] also
    flushes its deltas to the [Revkb_obs] registry under [sat.*], so a
    process-wide snapshot aggregates every solver instance. *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  learned : int; (* learnt clauses recorded, unit learnts included *)
  restarts : int;
}

(* lint: iface-ok test_sat pins the search trace on these counters *)
val stats : t -> stats
