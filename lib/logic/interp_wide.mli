(** Multi-word packed interpretations: masks over alphabets wider than
    {!Interp_packed.max_letters} letters.

    One interpretation = one [int array] of a fixed word count per
    alphabet; word [w] holds letters [62w .. 62w+61] in its low 62 bits
    (bit 62 is the sign bit and stays clear), so popcount is the
    one-word SWAR routine applied per word, symmetric difference is a
    word-wise [lxor], and subset a word-wise [land]/compare.  Sorted
    model sets use the masks-as-integers order (most significant word
    decides first), which over a one-word alphabet coincides exactly
    with the {!Interp_packed} set order — the two engines agree
    bit-for-bit on every width where both apply.

    This engine removes the 62-letter ceiling; {!Interp_packed} remains
    the specialized fast case.  Consumers reach both through the common
    {!Mask.S} signature, and {!Mask.engine} picks one by width. *)

type alphabet = Interp_packed.alphabet
(** Shared with the one-word engine: same letter order, same bit
    indices. *)

(* lint: iface-ok test_wide pins the word layout *)
val words : alphabet -> int
(** Word count of every mask over this alphabet (at least 1). *)

(** {1 Masks} *)

type t = int array
(** Bit [i mod 62] of word [i / 62] is the truth value of letter [i].
    Length is {!words} of the owning alphabet; bits at and above the
    alphabet size are always zero. *)

val zero : alphabet -> t
val test : t -> int -> bool
val set_bit : t -> int -> unit
val pack : alphabet -> Interp.t -> t
val unpack : alphabet -> t -> Interp.t (* lint: iface-ok test_wide *)

(* lint: iface-ok test_wide holds the widened one-word engine to it *)
val of_mask : alphabet -> Interp_packed.t -> t
(** Widen a one-word mask (meaningful when the alphabet fits one
    word). *)

val popcount : t -> int (* lint: iface-ok test_wide *)
val lxor_ : t -> t -> t
val hamming : t -> t -> int
val subset : t -> t -> bool
val is_zero : t -> bool
val equal : t -> t -> bool (* lint: iface-ok test_wide *)

(** {1 Model sets: sorted duplicate-free arrays of wide masks} *)

type set = t array

val normalize : t array -> set
val set_of_interps : alphabet -> Interp.t list -> set
val interps_of_set : alphabet -> set -> Interp.t list

val set_of_masks : alphabet -> Interp_packed.set -> set
(** Widen a one-word set; preserves order (both engines sort masks as
    integers). *)

val mem : set -> t -> bool
val equal_set : set -> set -> bool
val inter : set -> set -> set
val filter : (t -> bool) -> set -> set
val exists : (t -> bool) -> set -> bool
val min_incl : t array -> set

(** Min-inclusion frontier over wide masks — the same online antichain
    filter as {!Interp_packed.Frontier}, insertion-order independent,
    so per-chunk frontiers merge deterministically. *)
module Frontier : sig
  type nonrec t

  val create : unit -> t
  val size : t -> int
  val add : t -> int array -> unit
  val to_array : t -> int array array
  val to_set : t -> set
end
