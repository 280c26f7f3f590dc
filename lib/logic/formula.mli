(** Propositional formulas.

    The connective set follows the paper (Section 2): conjunction,
    disjunction, negation, implication [x -> y] (for [~x | y]),
    equivalence [x == y] (for [(x & y) | (~x & ~y)]) and non-equivalence
    [x != y] (for [(x | y) & (~x | ~y)]).  [And]/[Or] are n-ary so that
    theories and the paper's big conjunctions/disjunctions print naturally.

    Constructors exported here are smart: they do constant folding and
    flatten nested [And]/[Or], but perform no other simplification, so the
    size of a formula built from the paper's definitions faithfully tracks
    the definition. *)

type t = private
  | True
  | False
  | Var of Var.t
  | Not of t
  | And of t list
  | Or of t list
  | Imp of t * t
  | Iff of t * t
  | Xor of t * t

(** {1 Construction} *)

val top : t
val bot : t
val var : Var.t -> t
val v : string -> t
(** [v "a"] is [var (Var.named "a")]. *)

val not_ : t -> t
val and_ : t list -> t
(** [and_ [] = top]; nested conjunctions are flattened; [False] absorbs. *)

val or_ : t list -> t
(** [or_ [] = bot]; dual of [and_]. *)

val imp : t -> t -> t
val iff : t -> t -> t
val xor : t -> t -> t
val lit : bool -> Var.t -> t
(** [lit true x] is [var x]; [lit false x] is [not_ (var x)]. *)

val conj2 : t -> t -> t
val disj2 : t -> t -> t

(** {1 Structure} *)

val equal : t -> t -> bool
(** Structural equality (after smart-constructor normalization). *)

val compare : t -> t -> int

val vars : t -> Var.Set.t
(** The formula's alphabet: the letters occurring in it. *)

val size : t -> int
(** The paper's [|W|]: number of occurrences of propositional variables. *)

val node_count : t -> int
(** Number of AST nodes: a coarser size including connectives. *)

(** {1 Substitution (Section 2 notation)} *)

val substitute : (Var.t -> t option) -> t -> t
(** Simultaneous substitution: every occurrence of a letter [x] with
    [f x = Some F] is replaced by [F].  This is the paper's [P[X/Y]]. *)

val rename : (Var.t * Var.t) list -> t -> t
(** Variable-for-variable substitution. *)

val negate_vars : Var.Set.t -> t -> t
(** The paper's [F[H/H-bar]]: replace each letter of [H] by its negation. *)

val assign_vars : bool Var.Map.t -> t -> t
(** Replace letters by the constants [top]/[bot]. *)

(** {1 Evaluation} *)

val eval : (Var.t -> bool) -> t -> bool

(** {1 Printing and simplification} *)

val pp : Format.formatter -> t -> unit
(** Concrete syntax accepted back by {!Parser.formula_of_string}. *)

val to_string : t -> string

val simplify : t -> t
(** Bottom-up algebraic simplification (idempotence, complement,
    constant laws).  Preserves logical equivalence; used for display, never
    implicitly. *)

val nnf : t -> t
(** Negation normal form: [Imp]/[Iff]/[Xor] expanded, negations pushed to
    the literals. *)
