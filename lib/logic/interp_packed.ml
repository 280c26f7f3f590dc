type alphabet = {
  arr : Var.t array; (* bit i <-> arr.(i), sorted by Var.compare *)
  index : (Var.t, int) Hashtbl.t;
}

let alphabet vars =
  let arr = Array.of_list (Var.Set.elements (Var.set_of_list vars)) in
  let index = Hashtbl.create (Array.length arr) in
  Array.iteri (fun i x -> Hashtbl.replace index x i) arr;
  { arr; index }

let size alpha = Array.length alpha.arr
let letters alpha = Array.to_list alpha.arr
let max_letters = Sys.int_size - 1

(* One less than [max_letters]: a sweep needs the assignment count
   [2^n] itself, and [1 lsl max_letters] lands exactly on the sign bit
   (n = 62 on 64-bit), turning every total-count comparison into
   nonsense.  Widths 0..61 keep [2^n - 1 <= max_int]. *)
let max_sweep_letters = Sys.int_size - 2
let fits alpha = size alpha <= max_letters
let index_of alpha x = Hashtbl.find_opt alpha.index x
let letter alpha i = alpha.arr.(i)

type t = int

let pack alpha m =
  Var.Set.fold
    (fun x acc ->
      match Hashtbl.find_opt alpha.index x with
      | Some i ->
          assert (i < max_letters);
          acc lor (1 lsl i)
      | None -> acc)
    m 0

(* SWAR popcount.  The 64-bit constants exceed OCaml's 63-bit literal
   range, so they are assembled from 32-bit halves; masks only ever use
   bits 0..61 ([max_letters]), so the byte-sum multiply stays exact. *)
let m1 = (0x55555555 lsl 32) lor 0x55555555
let m2 = (0x33333333 lsl 32) lor 0x33333333
let m4 = (0x0f0f0f0f lsl 32) lor 0x0f0f0f0f
let h01 = (0x01010101 lsl 32) lor 0x01010101

let popcount x =
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  (x * h01) lsr 56

let hamming m n = popcount (m lxor n)
let subset a b = a land lnot b = 0

(* Index of the lowest set bit of a nonzero [x]: the bits below it,
   counted. *)
let ctz x = popcount ((x land -x) - 1)

let unpack alpha mask =
  let s = ref Var.Set.empty in
  let rest = ref mask in
  while !rest <> 0 do
    s := Var.Set.add alpha.arr.(ctz !rest) !s;
    rest := !rest land (!rest - 1)
  done;
  !s

(* Bit-sliced evaluation.  The [2^n] assignment codes split into blocks
   of 32 consecutive codes, and a compiled formula maps a block index to
   one word holding its truth value on all 32 codes at once.  Letter [i]
   is bit [i] of the code, so over the codes [32b .. 32b + 31] letters
   0..4 run through the fixed patterns below (bit [j] of the pattern is
   bit [i] of [j]), and letter [i >= 5] is constant across the block:
   bit [i - 5] of [b]. *)
let block_log = 5
let block_bits = 1 lsl block_log
let full = 0xFFFFFFFF

let low_letter = function
  | 0 -> 0xAAAAAAAA
  | 1 -> 0xCCCCCCCC
  | 2 -> 0xF0F0F0F0
  | 3 -> 0xFF00FF00
  | _ -> 0xFFFF0000

let compile alpha (f : Formula.t) =
  let rec go (f : Formula.t) : int -> int =
    match f with
    | True -> fun _ -> full
    | False -> fun _ -> 0
    | Var x -> (
        match Hashtbl.find_opt alpha.index x with
        | Some i when i < block_log ->
            let w = low_letter i in
            fun _ -> w
        | Some i ->
            assert (i < max_letters);
            let s = i - block_log in
            fun b -> -((b lsr s) land 1) land full
        | None -> fun _ -> 0)
    | Not g ->
        let g = go g in
        fun b -> g b lxor full
    | And gs ->
        (* Stop at the first all-false word.  [loop] is built once per
           node, so a call allocates nothing. *)
        let gs = Array.of_list (List.map go gs) in
        let k = Array.length gs in
        let rec loop b acc i =
          if i = k || acc = 0 then acc else loop b (acc land gs.(i) b) (i + 1)
        in
        fun b -> loop b full 0
    | Or gs ->
        let gs = Array.of_list (List.map go gs) in
        let k = Array.length gs in
        let rec loop b acc i =
          if i = k || acc = full then acc
          else loop b (acc lor gs.(i) b) (i + 1)
        in
        fun b -> loop b 0 0
    | Imp (a, c) ->
        let a = go a and c = go c in
        fun b -> a b lxor full lor c b
    | Iff (a, c) ->
        let a = go a and c = go c in
        fun b -> a b lxor c b lxor full
    | Xor (a, c) ->
        let a = go a and c = go c in
        fun b -> a b lxor c b
  in
  go f

type set = t array

let normalize masks =
  let a = Array.copy masks in
  Array.sort Int.compare a;
  let n = Array.length a in
  if n = 0 then a
  else begin
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!k - 1) then begin
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

let mem set mask =
  let lo = ref 0 and hi = ref (Array.length set) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if set.(mid) < mask then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length set && set.(!lo) = mask

let equal_set a b = a = b

let filter p set =
  let out = ref [] and count = ref 0 in
  for i = Array.length set - 1 downto 0 do
    if p set.(i) then begin
      out := set.(i) :: !out;
      incr count
    end
  done;
  let a = Array.make !count 0 in
  List.iteri (fun i m -> a.(i) <- m) !out;
  a

let inter a b = filter (mem b) a
let exists p set = Array.exists p set

(* Sort by popcount so every potential strict subset of a mask precedes
   it; then a mask survives iff no earlier survivor is contained in it. *)
let min_incl masks =
  let a = normalize masks in
  Array.sort
    (fun x y ->
      match Int.compare (popcount x) (popcount y) with
      | 0 -> Int.compare x y
      | c -> c)
    a;
  let out = ref [] in
  Array.iter
    (fun m ->
      if not (List.exists (fun m' -> subset m' m) !out) then out := m :: !out)
    a;
  normalize (Array.of_list !out)

(* A min-inclusion frontier: the antichain of inclusion-minimal masks
   seen so far.  [add] is the online filter behind the streaming distance
   reductions — a candidate is dropped when some kept mask is contained
   in it, and inserting a candidate evicts every kept mask it is
   contained in.  After any insertion sequence the items are exactly the
   minimal masks of the sequence, independent of order, which is what
   makes per-domain frontiers mergeable into a deterministic result. *)
module Frontier = struct
  type frontier = { mutable items : int array; mutable len : int }
  type t = frontier

  let create () = { items = Array.make 16 0; len = 0 }
  let size fr = fr.len

  (* Takes everything as arguments: [add] runs once per streamed
     candidate, and a [let rec] capturing [fr]/[d] would allocate a
     closure on every call — dozens of MB over a large delta. *)
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
        let bigger = Array.make (2 * fr.len) 0 in
        Array.blit fr.items 0 bigger 0 fr.len;
        fr.items <- bigger
      end;
      fr.items.(fr.len) <- d;
      fr.len <- fr.len + 1
    end

  let to_array fr = Array.sub fr.items 0 fr.len
  let to_set fr = normalize (to_array fr)
end

(* Below this many codes the batch overhead beats the win; the
   sequential and parallel paths produce identical results either way. *)
let sweep_parallel_threshold = 1 lsl 12

(* The blocks covering the [2^n] codes, and the mask of a block's bits
   that are real codes: below 5 letters the one block holds every code
   in its low [2^n] bits. *)
let blocks name n =
  (* [1 lsl n] at n = max_letters (62) overflows into the sign bit, so
     the widest sweepable width is [max_sweep_letters]; wider alphabets
     must enumerate through the SAT walk (Models.enumerate_wide /
     Semantics.masks_sat), which never materializes 2^n. *)
  if n > max_sweep_letters then
    invalid_arg
      (Printf.sprintf
         "%s: alphabet has %d letters, limit is %d (2^n exceeds the native \
          int range — the overflow class lint rule R2 guards; use the \
          SAT-backed wide engine Models.enumerate_wide for larger alphabets)"
         name n max_sweep_letters);
  if n < block_log then (1, full lsr (block_bits - (1 lsl n)))
  else (1 lsl (n - block_log), full)

(* Compile [f] once and run [chunk kernel valid lo hi] over the block
   ranges: one range on the sequential path, else contiguous ranges
   across the pool, returned in ascending order.  Compiled kernels keep
   no mutable state, so the domains share one. *)
let over_blocks name alpha f chunk =
  let nblocks, valid = blocks name (size alpha) in
  let kernel = compile alpha f in
  let pool = Revkb_parallel.Pool.global () in
  if
    Revkb_parallel.Pool.jobs pool = 1
    || nblocks * block_bits < sweep_parallel_threshold
  then [| chunk kernel valid 0 nblocks |]
  else Revkb_parallel.Pool.map_ranges pool ~lo:0 ~hi:nblocks (chunk kernel valid)

(* Chunk accounting is per-range, never per-code: two atomic adds on a
   range of blocks keep the inner loop untouched. *)
let c_sweep_chunks = Revkb_obs.Obs.counter "enum.sweep_chunks"
let c_sweep_codes = Revkb_obs.Obs.counter "enum.sweep_codes"

let sweep_chunk kernel valid lo hi =
  Revkb_obs.Obs.incr c_sweep_chunks;
  Revkb_obs.Obs.add c_sweep_codes ((hi - lo) * popcount valid);
  let out = ref (Array.make 64 0) and len = ref 0 in
  for b = lo to hi - 1 do
    let w = ref (kernel b land valid) in
    while !w <> 0 do
      if !len = Array.length !out then begin
        let bigger = Array.make (2 * !len) 0 in
        Array.blit !out 0 bigger 0 !len;
        out := bigger
      end;
      !out.(!len) <- (b lsl block_log) lor ctz !w;
      incr len;
      w := !w land (!w - 1)
    done
  done;
  Array.sub !out 0 !len

let sweep alpha f =
  Revkb_obs.Obs.with_span "enum.sweep"
    ~attrs:(fun () -> [ ("n", string_of_int (size alpha)) ])
    (fun () ->
      match over_blocks "Interp_packed.sweep" alpha f sweep_chunk with
      | [| set |] -> set
      | sets -> Array.concat (Array.to_list sets))

let count alpha f =
  let chunk kernel valid lo hi =
    let c = ref 0 in
    for b = lo to hi - 1 do
      c := !c + popcount (kernel b land valid)
    done;
    !c
  in
  Array.fold_left ( + ) 0 (over_blocks "Interp_packed.count" alpha f chunk)

let satisfiable alpha f =
  let chunk kernel valid lo hi =
    let rec go b = b < hi && (kernel b land valid <> 0 || go (b + 1)) in
    go lo
  in
  Array.exists Fun.id (over_blocks "Interp_packed.satisfiable" alpha f chunk)
