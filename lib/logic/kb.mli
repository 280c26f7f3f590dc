(** A knowledge base as the revision engines take it: the conjunction
    of [T], its letters, and its satisfiability, decided at most once
    per handle.

    The serving setting revises one fixed [T] by many small [P]; the
    registry keeps one handle per epoch, so every construction, check
    and measure of that epoch reads one decision instead of asking
    again.  One-shot callers build a handle on the spot.  The decision
    is a mutable cell, not a process-wide memo: take it on the calling
    domain before fanning work out to a pool (a race would only repeat
    the work, both deciders storing the same answer). *)

type t

val make : Formula.t -> t

val of_theory : Theory.t -> t
(** The handle of [Theory.conj th], over the letters of every member
    (a [False] member empties the conjunction, not the alphabet). *)

val formula : t -> Formula.t
val vars : t -> Var.Set.t

val known : t -> bool option
(** The decision, if one has been taken. *)

val decide : t -> by:(unit -> bool) -> bool
(** The decision, taken by [by ()] when none has been yet and then kept
    ([sem.kb.decisions] counts these).  [by] must answer whether
    {!formula} is satisfiable; the measure session of [Compact] asks it
    of [T] asserted alone. *)

val is_sat : t -> bool
(** {!decide} by {!Semantics.is_sat}. *)
