(** Growable arrays, used for watch lists and the clause database.

    OCaml 5.1 has no [Dynarray]; this is the minimal mutable vector the
    solver needs.  Elements beyond [size] keep stale values and must never
    be read. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

val shrink : 'a t -> int -> unit
(** [shrink v n] truncates [v] to size [n] ([n <= size v]). *)

val iter : ('a -> unit) -> 'a t -> unit
val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keep only elements satisfying the predicate, preserving order. *)
