(* Multi-word packed interpretations: the >62-letter generalization of
   Interp_packed.  A mask is an [int array] of fixed word count per
   alphabet; word [w] holds letters [w*62 .. w*62+61] in its low 62
   bits, so every word stays nonnegative and the one-word SWAR popcount
   applies per word unchanged.  The integer order of one-word masks
   generalizes to least-significant-word-first lexicographic order read
   from the top word down, so sorted model sets over a <=62-letter
   alphabet are bit-for-bit the Interp_packed order. *)

type alphabet = Interp_packed.alphabet

(* 62 payload bits per word, matching Interp_packed.max_letters: bit 62
   is the sign bit on 64-bit OCaml and must stay clear both for the
   SWAR byte-sum multiply and for word comparisons to read unsigned. *)
let bits_per_word = Interp_packed.max_letters
let words_for n = if n <= 0 then 1 else ((n - 1) / bits_per_word) + 1
let words alpha = words_for (Interp_packed.size alpha)

type t = int array

let zero alpha = Array.make (words alpha) 0
let test m i = m.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let set_bit m i =
  m.(i / bits_per_word) <- m.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let pack alpha m =
  let out = zero alpha in
  Var.Set.iter
    (fun x ->
      match Interp_packed.index_of alpha x with
      | Some i -> set_bit out i
      | None -> ())
    m;
  out

let unpack alpha m =
  let s = ref Var.Set.empty in
  let n = Interp_packed.size alpha in
  for i = 0 to n - 1 do
    if test m i then s := Var.Set.add (Interp_packed.letter alpha i) !s
  done;
  !s

(* Widen a one-word mask, for alphabets where both engines apply. *)
let of_mask alpha w =
  let out = zero alpha in
  out.(0) <- w;
  out

let popcount m =
  let acc = ref 0 in
  for w = 0 to Array.length m - 1 do
    acc := !acc + Interp_packed.popcount m.(w)
  done;
  !acc

let lxor_ a b = Array.init (Array.length a) (fun w -> a.(w) lxor b.(w))

let hamming a b =
  let acc = ref 0 in
  for w = 0 to Array.length a - 1 do
    acc := !acc + Interp_packed.popcount (a.(w) lxor b.(w))
  done;
  !acc

let subset a b =
  let rec go w =
    w >= Array.length a || (a.(w) land lnot b.(w) = 0 && go (w + 1))
  in
  go 0

let is_zero m = Array.for_all (fun w -> w = 0) m
let equal a b = Array.length a = Array.length b && Array.for_all2 ( = ) a b

(* Masks-as-integers order: most significant word decides first.  Over a
   one-word alphabet this is Int.compare, so set orderings agree with
   Interp_packed across the width boundary. *)
let compare_masks a b =
  let rec go w =
    if w < 0 then 0
    else
      let c = Int.compare a.(w) b.(w) in
      if c <> 0 then c else go (w - 1)
  in
  go (Array.length a - 1)

type set = t array

let normalize masks =
  let a = Array.copy masks in
  Array.sort compare_masks a;
  let n = Array.length a in
  if n = 0 then a
  else begin
    let k = ref 1 in
    for i = 1 to n - 1 do
      if not (equal a.(i) a.(!k - 1)) then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    Array.sub a 0 !k
  end

let set_of_interps alpha ms =
  normalize (Array.of_list (List.map (pack alpha) ms))

let interps_of_set alpha set =
  Array.to_list (Array.map (unpack alpha) set)

let set_of_masks alpha ws = Array.map (of_mask alpha) ws

let mem set mask =
  let lo = ref 0 and hi = ref (Array.length set) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_masks set.(mid) mask < 0 then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length set && equal set.(!lo) mask

let equal_set a b = Array.length a = Array.length b && Array.for_all2 equal a b

let filter p set =
  let out = ref [] and count = ref 0 in
  for i = Array.length set - 1 downto 0 do
    if p set.(i) then begin
      out := set.(i) :: !out;
      incr count
    end
  done;
  let a = Array.make !count [||] in
  List.iteri (fun i m -> a.(i) <- m) !out;
  a

let inter a b = filter (mem b) a
let exists p set = Array.exists p set

(* Same antichain algorithms as the one-word engine, over word arrays. *)
let min_incl masks =
  let a = normalize masks in
  Array.sort
    (fun x y ->
      match Int.compare (popcount x) (popcount y) with
      | 0 -> compare_masks x y
      | c -> c)
    a;
  let out = ref [] in
  Array.iter
    (fun m ->
      if not (List.exists (fun m' -> subset m' m) !out) then out := m :: !out)
    a;
  normalize (Array.of_list !out)

(* Min-inclusion frontier over wide masks: identical contract to
   Interp_packed.Frontier — insertion-order independent, so per-chunk
   frontiers merge deterministically. *)
module Frontier = struct
  type frontier = { mutable items : t array; mutable len : int }
  type nonrec t = frontier

  let create () = { items = Array.make 16 [||]; len = 0 }
  let size fr = fr.len

  let rec dominated items len d i =
    i < len && (subset items.(i) d || dominated items len d (i + 1))

  let add fr d =
    if not (dominated fr.items fr.len d 0) then begin
      let k = ref 0 in
      for i = 0 to fr.len - 1 do
        if not (subset d fr.items.(i)) then begin
          fr.items.(!k) <- fr.items.(i);
          incr k
        end
      done;
      fr.len <- !k;
      if fr.len = Array.length fr.items then begin
        let bigger = Array.make (2 * fr.len) [||] in
        Array.blit fr.items 0 bigger 0 fr.len;
        fr.items <- bigger
      end;
      fr.items.(fr.len) <- d;
      fr.len <- fr.len + 1
    end

  let to_array fr = Array.sub fr.items 0 fr.len
  let to_set fr = normalize (to_array fr)
end
