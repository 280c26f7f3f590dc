(** One signature over the two mask representations.

    A mask is an interpretation packed over an {!Interp_packed.alphabet}:
    bit [i] is the truth value of the alphabet's [i]-th letter.
    {!Interp_packed} stores it in one native [int] (at most
    {!Interp_packed.max_letters} letters); {!Interp_wide} in an
    [int array] of 62-bit words (any width).  Everything written over
    {!S} — the distances, the six operators, the SAT-side mask helpers —
    exists once and runs on either representation: {!Packed} is the
    specialized one-word fast case, {!Wide} the general one.  The two
    agree bit for bit wherever both apply (same letter order, same set
    order), and {!engine} is the single place that picks between them. *)

module type S = sig
  type t
  (** One mask. *)

  type set = t array
  (** Sorted, duplicate-free masks (masks-as-integers order). *)

  val fits : Interp_packed.alphabet -> bool
  (** Can this representation hold every mask over the alphabet? *)

  val pack : Interp_packed.alphabet -> Interp.t -> t
  (** Letters outside the alphabet are dropped. *)

  val init : Interp_packed.alphabet -> (int -> bool) -> t
  (** [init alpha f]: bit [i] set iff [f i], for [i] below the alphabet
      size. *)

  val test : t -> int -> bool
  (** Is bit [i] set? *)

  val diff : t -> t -> t
  (** Symmetric difference: the paper's [M Δ N]. *)

  val union : t -> t -> t
  val is_zero : t -> bool

  val hamming : t -> t -> int
  (** [|M Δ N|]. *)

  val subset : t -> t -> bool
  (** Bitwise inclusion. *)

  val normalize : t array -> set
  val of_packed : Interp_packed.alphabet -> Interp_packed.set -> set
  (** Convert a one-word set (from the truth-table sweep). *)

  val set_of_interps : Interp_packed.alphabet -> Interp.t list -> set
  val interps_of_set : Interp_packed.alphabet -> set -> Interp.t list

  val mem : set -> t -> bool
  (** Binary search. *)

  val equal_set : set -> set -> bool
  val inter : set -> set -> set
  val filter : (t -> bool) -> set -> set
  val exists : (t -> bool) -> set -> bool

  val min_incl : t array -> set
  (** The paper's [minc]: subset-minimal masks. *)

  (** Online min-inclusion antichain ({!Interp_packed.Frontier}). *)
  module Frontier : sig
    type mask := t
    type t

    val create : unit -> t
    val size : t -> int
    val add : t -> mask -> unit
    val to_array : t -> mask array
    val to_set : t -> set
  end
end

module Packed : S with type t = Interp_packed.t
(** One-word masks; {!S.fits} is {!Interp_packed.fits}. *)

module Wide : S with type t = Interp_wide.t
(** Multi-word masks; fit every alphabet. *)

val by_width : Interp_packed.alphabet -> 'a -> 'a -> 'a
(** [by_width alpha one_word multi_word] is [one_word] when the alphabet
    fits {!Packed}, else [multi_word]: the width decision, made here and
    nowhere else.  Libraries pass their two applications of a functor
    over {!S}. *)

val engine : Interp_packed.alphabet -> (module S)
(** [by_width alpha (module Packed) (module Wide)]. *)
