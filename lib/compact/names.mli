(** Disjoint copies of alphabets.

    The paper's constructions repeatedly introduce letter sets [Y], [Z],
    [Y_i], ... "one-to-one with" an existing alphabet.  This helper builds
    such copies by suffixing names, retrying with a longer suffix until
    the copy is disjoint from a caller-supplied avoid set — so a theory
    that already uses primed names can never be captured. *)

open Logic

val copy : ?avoid:Var.Set.t -> suffix:string -> Var.t list -> Var.t list
(** [copy ~avoid ~suffix xs]: fresh letters named [x ^ suffix] (or
    [x ^ suffix ^ "_"] repeated as needed), pairwise distinct and disjoint
    from both [xs] and [avoid]. *)
