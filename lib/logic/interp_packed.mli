(** Packed interpretations: one interpretation = one [int] bitmask.

    The brute-force pipeline behind the model-based operators spends its
    time building, diffing and comparing {!Interp.t} values — balanced
    trees of integers.  Over an explicit alphabet of at most
    {!max_letters} letters the same data fits in a single native [int]:
    bit [i] of a mask is the truth value of the alphabet's [i]-th letter.
    Symmetric difference becomes [lxor], Hamming distance a popcount,
    subset tests a [land]/compare, and model sets become sorted [int
    array]s that compare with [Array] equality.

    The packed engine is internal machinery: public APIs keep speaking
    {!Interp.t}, and {!pack}/{!unpack} convert at the boundary. *)

type alphabet
(** A fixed, ordered alphabet: letter [i] of the alphabet owns bit [i].
    Construction sorts and deduplicates, so the bit order is the
    {!Var.compare} order, matching {!Interp.subsets}' counter order. *)

val alphabet : Var.t list -> alphabet

val size : alphabet -> int
(** Number of letters. *)

val letters : alphabet -> Var.t list

val max_letters : int
(** Largest alphabet a mask can hold: [Sys.int_size - 1] (62 on 64-bit),
    keeping masks non-negative. *)

(* lint: iface-ok test_wide checks the sweep bound and its error *)
val max_sweep_letters : int
(** Largest alphabet {!sweep} accepts: [Sys.int_size - 2] (61 on
    64-bit).  One less than {!max_letters} because the sweep needs the
    total assignment count [2^n], and [1 lsl max_letters] overflows
    into the sign bit. *)

val fits : alphabet -> bool
(** Does the alphabet fit in one mask?  Callers switch to the
    {!Interp_wide} multi-word engine when it does not. *)

val index_of : alphabet -> Var.t -> int option
(** Bit index of a letter, when it is in the alphabet.  This is the
    letter-to-bit map shared with the {!Interp_wide} multi-word engine
    (there, bit [i] lives in word [i / 62]). *)

val letter : alphabet -> int -> Var.t
(** The letter owning bit [i]; inverse of {!index_of}. *)

(** {1 Masks} *)

type t = int
(** Bit [i] set iff letter [i] of the alphabet is true.  Bits at and above
    {!size} are always zero. *)

val pack : alphabet -> Interp.t -> t
(** Letters of the interpretation outside the alphabet are dropped
    (projection, like {!Interp.restrict}). *)

val unpack : alphabet -> t -> Interp.t (* lint: iface-ok test_packed *)
val popcount : t -> int

val hamming : t -> t -> int
(** [popcount (m lxor n)]: the paper's [|M Δ N|]. *)

val subset : t -> t -> bool
(** [subset a b]: is [a] a subset of [b] (as sets of true letters)? *)

(** {1 Model sets: sorted duplicate-free [int array]s} *)

type set = t array

val normalize : t array -> set
(** Sort ascending and deduplicate (in a fresh array). *)

val set_of_interps : alphabet -> Interp.t list -> set
val interps_of_set : alphabet -> set -> Interp.t list

val mem : set -> t -> bool
(** Binary search. *)

val equal_set : set -> set -> bool
val inter : set -> set -> set
val filter : (t -> bool) -> set -> set
val exists : (t -> bool) -> set -> bool

val min_incl : t array -> set
(** The paper's [minc]: subset-minimal masks (input need not be sorted;
    duplicates collapse).  Masks are sets of letters here, so minimality
    is bitwise inclusion. *)

(** {1 Truth-table sweeps}

    The [2^n] assignment codes of an [n]-letter alphabet are split into
    blocks of 32 consecutive codes: block [b] holds the codes
    [32b .. 32b + 31], and bit [j] of a block word stands for code
    [32b + j].  Letters 0..4 vary inside a block, so their words are the
    fixed patterns [0xAAAAAAAA], [0xCCCCCCCC], [0xF0F0F0F0],
    [0xFF00FF00] and [0xFFFF0000]; letter [i >= 5] is constant over a
    block, all ones or zero by bit [i - 5] of [b].  Connectives become
    word operations, so one evaluation decides 32 assignments.  Below 5
    letters there is a single block and only its low [2^n] bits are
    codes. *)

(* lint: iface-ok test_packed checks each kernel bit; sweep runs it *)
val compile : alphabet -> Formula.t -> int -> int
(** [compile alpha f] is [f]'s block kernel: applied to a block index
    [b], its 32 low bits are [f]'s truth values on the codes of block
    [b] (bits above 31 are zero).  Letters of [f] outside the alphabet
    read false.  Compile once, apply per block: a call allocates
    nothing, and the kernel keeps no state, so domains may share it.
    Bits of a block past [2^n] are not codes and must be masked off by
    the caller. *)

val sweep : alphabet -> Formula.t -> set
(** All masks [0 .. 2^size - 1] satisfying the formula, ascending: the
    packed truth-table sweep.  Compiles the formula, walks the blocks
    and emits each set bit of a block word as a code.  Raises
    [Invalid_argument] beyond {!max_sweep_letters} letters — [2^n]
    itself is not representable there — naming the SAT-backed
    enumerator to use instead.  From [2^12] codes on, the blocks are
    split into contiguous ranges evaluated across the
    {!Revkb_parallel.Pool.global} pool; range results concatenate in
    range order, so the output is identical at every job count.  Each
    sweep adds [2^size] to the [enum.sweep_codes] counter. *)

val count : alphabet -> Formula.t -> int
(** Number of masks satisfying the formula: a popcount per block, no
    model stored.  Same width limit and parallel split as {!sweep}. *)

val satisfiable : alphabet -> Formula.t -> bool
(** Does some mask satisfy the formula?  Each range stops at its first
    nonzero block.  Same width limit and parallel split as {!sweep}. *)

(** {1 Min-inclusion frontiers} *)

(** The online minimal-antichain filter behind the streaming distance
    reductions: insert candidate difference masks one by one and only the
    inclusion-minimal ones are kept, so [δ(T, P)] never materializes the
    [|Mod(T)|·|Mod(P)|] candidate array.  Insertion order does not affect
    the final contents, which is what lets per-domain frontiers merge
    into a deterministic result. *)
module Frontier : sig
  type t

  val create : unit -> t
  val size : t -> int

  val add : t -> int -> unit
  (** Insert a candidate, keeping only inclusion-minimal masks. *)

  val to_array : t -> int array
  (** Current antichain, unsorted. *)

  val to_set : t -> set
  (** Current antichain as a canonical sorted {!set}. *)
end
