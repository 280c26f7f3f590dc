(* A binary max-heap in a plain int array.  Comparisons read the
   activity array in place: one unboxed float load per side, no closure
   call and no boxed float.  Sifting moves a hole instead of swapping,
   and every element ends where pairwise swaps would put it: the
   solver's decisions depend on that order. *)
type t = {
  act : float array ref;
  mutable heap : int array; (* heap of variable indices *)
  mutable size : int;
  mutable pos : int array; (* var -> index in heap, or -1 *)
}

let create act = { act; heap = [||]; size = 0; pos = Array.make 16 (-1) }

let grow_to t n =
  let cap = Array.length t.pos in
  if n > cap then begin
    let pos' = Array.make (max n (2 * cap)) (-1) in
    Array.blit t.pos 0 pos' 0 cap;
    t.pos <- pos'
  end

let size t = t.size

let sift_up t i =
  let a = !(t.act) in
  let v = t.heap.(i) in
  let av = a.(v) in
  let i = ref i in
  while !i > 0 && av > a.(t.heap.((!i - 1) / 2)) do
    let parent = (!i - 1) / 2 in
    let p = t.heap.(parent) in
    t.heap.(!i) <- p;
    t.pos.(p) <- !i;
    i := parent
  done;
  t.heap.(!i) <- v;
  t.pos.(v) <- !i

let sift_down t i =
  let a = !(t.act) in
  let n = t.size in
  let v = t.heap.(i) in
  let av = a.(v) in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let child =
        if r < n && a.(t.heap.(r)) > a.(t.heap.(l)) then r else l
      in
      let c = t.heap.(child) in
      if a.(c) > av then begin
        t.heap.(!i) <- c;
        t.pos.(c) <- !i;
        i := child
      end
      else continue := false
    end
  done;
  t.heap.(!i) <- v;
  t.pos.(v) <- !i

let insert t v =
  grow_to t (v + 1);
  if t.pos.(v) < 0 then begin
    if t.size = Array.length t.heap then begin
      let heap' = Array.make (max 16 (2 * t.size)) 0 in
      Array.blit t.heap 0 heap' 0 t.size;
      t.heap <- heap'
    end;
    t.heap.(t.size) <- v;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)
  end

let mem t v = v < Array.length t.pos && t.pos.(v) >= 0
let update t v = if mem t v then sift_up t t.pos.(v)

let pop_max t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    t.pos.(top) <- -1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t 0
    end;
    Some top
  end
