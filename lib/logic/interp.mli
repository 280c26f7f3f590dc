(** Interpretations (truth assignments) as sets of true letters.

    The paper identifies a model with the set of letters it maps to true
    (Section 2); interpretations therefore compare, diff and print as
    variable sets.  An interpretation is always read relative to an
    explicit alphabet: letters outside the set are false. *)

type t = Var.Set.t

val of_list : Var.t list -> t

val sat : t -> Formula.t -> bool
(** [sat m f]: does [m] satisfy [f]?  Letters absent from [m] are false. *)

val sym_diff : t -> t -> Var.Set.t
(** The paper's [M Δ N]. *)

val restrict : Var.Set.t -> t -> t
(** Projection onto an alphabet. *)

val subsets : Var.t list -> t list
(** All [2^n] subsets of an alphabet, in binary-counter order.  The
    workhorse of legacy brute-force model enumeration; raises
    [Invalid_argument] (naming the limit) past 25 letters.  Prefer
    {!Models.enumerate}, which switches to SAT-backed enumeration for
    large alphabets instead of failing. *)

val min_incl : Var.Set.t list -> Var.Set.t list
(** The paper's [minc S]: keep only the subset-minimal sets (duplicates
    collapsed). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val minterm : Var.t list -> t -> Formula.t
(** The conjunction of literals that pins the interpretation down on the
    given alphabet: used to synthesize the naive DNF representation of a
    model set. *)
