(** The named-KB registry behind [revkb serve].

    Entries carry a monotonic {e epoch}: any content change ({!load}
    over an existing name, {!commit}) bumps it, builds a new {!Logic.Kb}
    handle and drops the entry's pooled session and compiled diagram.
    The handle is the epoch's one satisfiability decision: [load]
    decides nothing, and the first request that needs [T] decided
    takes the decision for every later one.  Serve-cache keys embed the
    epoch, so a bump invalidates every cached revision of the entry
    without touching the cache itself. *)

open Logic

type entry = {
  name : string;
  mutable theory : Theory.t;
  mutable kb : Kb.t; (* [Kb.of_theory theory], one per epoch *)
  mutable epoch : int;
  mutable session : Semantics.Session.t option;
  mutable compiled : Semantics.Compiled.t option;
}

type t

val create : unit -> t
val find : t -> string -> entry option

val names : t -> string list
(** Registered names, sorted. *)

val size : t -> int

val load : t -> string -> Theory.t -> entry
(** Register [theory] under the name.  Reusing a name replaces the
    content and bumps the epoch (a reload is an update); a fresh name
    starts at epoch 0. *)

val commit : entry -> Theory.t -> unit
(** Replace the entry's content and bump its epoch — the [update]
    verb's in-place [T := T * P]. *)

val session : entry -> Semantics.Session.t
(** The entry's pooled incremental session, with the KB asserted.
    Built on first use, reused until the next epoch bump; counted as
    [serve.session.builds] / [serve.session.reuse]. *)

val compiled : entry -> Semantics.Compiled.t option
val compile : entry -> Semantics.Compiled.t
(** Compile the KB to a ROBDD (idempotent until the next bump); the
    compiled route then serves [query] and [count] in diagram time. *)
