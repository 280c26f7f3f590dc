(** Growable arrays, used for watch lists and the clause database.

    OCaml 5.1 has no [Dynarray]; this is the minimal mutable vector the
    solver needs.  Elements beyond [size] keep stale values and must never
    be read. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a
(** Remove and return the last element.  Raises [Invalid_argument] when
    empty. *)

val last : 'a t -> 'a
val clear : 'a t -> unit
(** Logical clear; keeps the backing store. *)

val shrink : 'a t -> int -> unit
(** [shrink v n] truncates [v] to size [n] ([n <= size v]). *)

val iter : ('a -> unit) -> 'a t -> unit
val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t
val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keep only elements satisfying the predicate, preserving order. *)

val swap_remove : 'a t -> int -> unit
(** Remove element [i] by swapping in the last element; O(1), does not
    preserve order. *)
