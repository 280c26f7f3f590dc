(** A knowledge base as the revision engines take it: the conjunction
    of [T], its letters, its satisfiability, decided at most once per
    handle, and a solver with [T] encoded, built at most once per
    handle.

    The serving setting revises one fixed [T] by many small [P]; the
    registry keeps one handle per epoch, so every construction, check
    and measure of that epoch reads one decision instead of asking
    again, and every session of the epoch starts from one encoding of
    [T] instead of Tseitin-encoding it again.  One-shot callers build a
    handle on the spot.  The decision and the loaded solver are mutable
    cells, not process-wide memos: take the decision and build the
    solver ({!session}) on the calling domain before fanning work out
    to a pool.  A race on the decision would only repeat the work, both
    deciders storing the same answer; a race on the solver would build
    two. *)

type t

val make : Formula.t -> t

val of_theory : Theory.t -> t
(** The handle of [Theory.conj th], over the letters of every member
    (a [False] member empties the conjunction, not the alphabet). *)

val formula : t -> Formula.t
val vars : t -> Var.Set.t

val known : t -> bool option
(** The decision, if one has been taken. *)

val is_sat : t -> bool
(** The decision, taken by {!Semantics.is_sat} when none has been yet
    and then kept ([sem.kb.decisions] counts the decisions taken). *)

val session : t -> Semantics.Session.t
(** A new session holding {!formula}: a {!Semantics.Session.copy} of
    the handle's loaded session, in which [T] is encoded once.  The
    first call builds the loaded session and solves it once, on [T]
    alone; that solve takes the decision when none is held yet.  The
    loaded session is never queried after, so every copy starts from
    [T] alone, with the phases and learnt clauses of that solve. *)
