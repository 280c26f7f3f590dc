(** Max-heap over variable indices ordered by a mutable activity score.

    The solver bumps activities during conflict analysis; [decrease_key]
    style updates are handled by {!update}.  Variables are re-inserted when
    they are unassigned on backtracking. *)

type t

val create : float array ref -> t
(** [create act] builds an empty heap ordering variables by their entry
    in [!act] (higher first).  The array is read in place at comparison
    time, so it may be replaced (grown) through the reference, and
    bumping a variable's activity requires a subsequent {!update} to
    restore heap order.  Every variable inserted must index [!act]. *)

val insert : t -> int -> unit
(** No-op when already present. *)

val update : t -> int -> unit
(** Restore heap order after the variable's score increased.  No-op when
    absent. *)

val pop_max : t -> int option
val grow_to : t -> int -> unit
(** Ensure internal position arrays can index variables [< n]. *)
