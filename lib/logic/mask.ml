module type S = sig
  type t
  type set = t array

  val fits : Interp_packed.alphabet -> bool
  val pack : Interp_packed.alphabet -> Interp.t -> t
  val init : Interp_packed.alphabet -> (int -> bool) -> t
  val test : t -> int -> bool
  val diff : t -> t -> t
  val union : t -> t -> t
  val is_zero : t -> bool
  val hamming : t -> t -> int
  val subset : t -> t -> bool
  val normalize : t array -> set
  val of_packed : Interp_packed.alphabet -> Interp_packed.set -> set
  val set_of_interps : Interp_packed.alphabet -> Interp.t list -> set
  val interps_of_set : Interp_packed.alphabet -> set -> Interp.t list
  val mem : set -> t -> bool
  val equal_set : set -> set -> bool
  val inter : set -> set -> set
  val filter : (t -> bool) -> set -> set
  val exists : (t -> bool) -> set -> bool
  val min_incl : t array -> set

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

(* Both instances bind each member by name rather than [include]-ing
   the engine module, so every engine function stays visibly used. *)
module Packed = struct
  type t = Interp_packed.t
  type set = t array

  let fits = Interp_packed.fits
  let pack = Interp_packed.pack

  let init alpha f =
    let m = ref 0 in
    for i = 0 to Interp_packed.size alpha - 1 do
      if f i then m := !m lor (1 lsl i)
    done;
    !m

  (* lint: shift-ok i indexes a letter of a fitting alphabet, so
     i < max_letters *)
  let test m i = m land (1 lsl i) <> 0
  let diff = ( lxor )
  let union = ( lor )
  let is_zero m = m = 0
  let hamming = Interp_packed.hamming
  let subset = Interp_packed.subset
  let normalize = Interp_packed.normalize
  let of_packed _ set = set
  let set_of_interps = Interp_packed.set_of_interps
  let interps_of_set = Interp_packed.interps_of_set
  let mem = Interp_packed.mem
  let equal_set = Interp_packed.equal_set
  let inter = Interp_packed.inter
  let filter = Interp_packed.filter
  let exists = Interp_packed.exists
  let min_incl = Interp_packed.min_incl

  module Frontier = Interp_packed.Frontier
end

module Wide = struct
  type t = Interp_wide.t
  type set = t array

  let fits _ = true
  let pack = Interp_wide.pack

  let init alpha f =
    let m = Interp_wide.zero alpha in
    for i = 0 to Interp_packed.size alpha - 1 do
      if f i then Interp_wide.set_bit m i
    done;
    m

  let test = Interp_wide.test
  let diff = Interp_wide.lxor_
  let union a b = Array.map2 ( lor ) a b
  let is_zero = Interp_wide.is_zero
  let hamming = Interp_wide.hamming
  let subset = Interp_wide.subset
  let normalize = Interp_wide.normalize
  let of_packed = Interp_wide.set_of_masks
  let set_of_interps = Interp_wide.set_of_interps
  let interps_of_set = Interp_wide.interps_of_set
  let mem = Interp_wide.mem
  let equal_set = Interp_wide.equal_set
  let inter = Interp_wide.inter
  let filter = Interp_wide.filter
  let exists = Interp_wide.exists
  let min_incl = Interp_wide.min_incl

  module Frontier = Interp_wide.Frontier
end

let by_width alpha one_word multi_word =
  if Interp_packed.fits alpha then one_word else multi_word

let engine alpha = by_width alpha (module Packed : S) (module Wide : S)
