(** Reduced ordered binary decision diagrams.

    Section 7 of the paper generalizes its non-compactability results from
    propositional formulas to any data structure with polynomial-time
    model checking (Definition 7.1 / Theorem 7.1).  ROBDDs are the
    canonical such structure, so the benchmarks also track BDD node counts
    of revised knowledge bases: seeing the BDD blow up alongside the DNF
    representations on the witness families is the empirical face of
    Theorem 7.1.

    The manager owns the variable order, one unique subtable per
    variable, and a single lossy operation cache shared by every
    traversal; counters appear under the [bdd.*] namespace.  Nodes are
    handles into the manager's store: an in-place adjacent-level swap
    (and hence {!sift}) rewrites node fields without invalidating any
    outstanding handle, and a mark-and-sweep collection keyed on the
    weakly-registered handles reclaims unreachable slots at public
    operation boundaries. *)

type manager
type node

val manager : Var.t list -> manager
(** Create a manager with the given variable order (first = topmost).
    The order changes only by an explicit {!sift}. *)

val order : manager -> Var.t list
(** Current variable order; reflects any reordering. *)

val extend : manager -> Var.t list -> unit
(** Append letters not already in the order at the bottom.  Appending
    below every existing level preserves the meaning of every node. *)

val force_order : Formula.t -> Var.t list
(** FORCE-style static order: hyperedges are the variable sets of
    minimal subformulas spanning 2-8 letters; iterated center-of-gravity
    averaging places connected letters near each other.  Deterministic. *)

val of_formula : manager -> Formula.t -> node
(** Build the ROBDD of a formula.  All formula letters must appear in the
    manager's order. *)

val of_models : manager -> Interp.t list -> node
(** BDD of a model set over the manager's full alphabet. *)

(* lint: iface-ok test_bdd checks it against and_/or_/not_ *)
val ite : node -> node -> node -> node
(** [ite f g h] is "if f then g else h" — the shared-cache core every
    boolean connective routes through. *)

val and_ : node -> node -> node

(* lint: iface-ok test_bdd checks it against of_formula *)
val or_ : node -> node -> node
val not_ : node -> node

val exists : Var.Set.t -> node -> node
(** Existentially quantify a set of letters. *)

(* lint: iface-ok test_bdd checks the dilation step Revise runs *)
val flip : Var.t -> node -> node
(** [flip x f] is [f] with the polarity of [x] inverted — the
    Hamming-dilation primitive used by {!Revise}. *)

val sift : manager -> unit
(** Rudell sifting with a growth cap: move each variable (largest
    subtable first) through every level, keep the best position, and
    collect garbage at placement boundaries.  Never changes the meaning
    of any outstanding node. *)

val is_false : node -> bool

val node_count : node -> int
(** Number of distinct internal (decision) nodes reachable from the root —
    the standard BDD size measure. *)

val sat_count : manager -> node -> int
(** Number of satisfying assignments over the manager's alphabet. *)

val models : ?cap:int -> manager -> node -> Interp.t list
(** All models over the manager's alphabet.  Raises
    {!Limits.Enumeration_cap_exceeded} (enumerator ["bdd"]) beyond
    [cap] (default 1_000_000) instead of materializing the expansion of
    skipped levels. *)

val equal : node -> node -> bool
(** Constant-time: ROBDDs are canonical per manager. *)

(* lint: iface-ok test/oracle/structure.ml's BDD ASK (Definition 7.1) *)
val eval : manager -> node -> Interp.t -> bool
(** One root-to-leaf walk — the poly-time [ASK] of a BDD. *)

type stats = {
  unique_hits : int;
  unique_misses : int;
  cache_hits : int;
  cache_misses : int;
  live_nodes : int;
  swaps : int;
  freed : int;
}

(* lint: iface-ok test_bdd reads the per-manager counters *)
val stats : manager -> stats
(** Cumulative per-manager counters (also flushed to the [bdd.*] obs
    namespace at public operation boundaries). *)

(** The six model-based revision operators computed directly on
    diagrams, mirroring [Revision.Model_based.select]'s boundary
    conventions: P unsatisfiable yields [bot]; T unsatisfiable (with P
    satisfiable) yields P.  Distances are Hamming distances over the
    manager's alphabet.  Dalal and Forbus run as layered min-Hamming
    fixpoints using {!flip}-dilation; Winslett, Satoh and Weber build
    their pair encodings over interleaved alphabet copies in a scratch
    manager and migrate the answer back. *)
module Revise : sig
  val dalal : manager -> node -> node -> node
  val forbus : manager -> node -> node -> node
  val winslett : manager -> node -> node -> node
  val borgida : manager -> node -> node -> node
  val satoh : manager -> node -> node -> node
  val weber : manager -> node -> node -> node
end
