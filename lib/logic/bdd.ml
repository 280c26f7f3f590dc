(* Reduced ordered binary decision diagrams.

   A manager owns an index-based node store (struct-of-arrays), one
   unique subtable per variable so adjacent-level swaps touch exactly
   two subtables, and a single lossy operation cache shared by every
   traversal.  Nodes are plain integers internally; the public [node]
   is a handle boxing the manager and an index, registered in a weak
   array so mark-and-sweep collection can see every live external
   root.  Slots 0 and 1 are the terminals and are never freed.

   Reordering is in-place: an adjacent swap rewrites the affected
   nodes' fields without changing their indices, so outstanding
   handles survive any number of swaps.  Collection and reordering
   run only at public operation boundaries, after the result has been
   boxed — internal recursions can therefore work on raw indices
   without a protection protocol. *)

module Obs = Revkb_obs.Obs

let c_uhit = Obs.counter "bdd.unique.hits"
let c_umiss = Obs.counter "bdd.unique.misses"
let c_chit = Obs.counter "bdd.cache.hits"
let c_cmiss = Obs.counter "bdd.cache.misses"
let c_live = Obs.counter "bdd.nodes.live"
let c_swaps = Obs.counter "bdd.reorder.swaps"
let c_freed = Obs.counter "bdd.gc.freed"

type manager = {
  (* Alphabet and order.  [vars]/[level_of] are indexed by variable id,
     [var_at] by level; [extend] reallocates all three. *)
  mutable vars : Var.t array;
  mutable var_ids : int Var.Map.t;
  mutable level_of : int array;
  mutable var_at : int array;
  mutable nvars : int;
  (* Node store.  [nvar] doubles as the slot state: >= 0 in use, -1
     terminal, -2 on the free list. *)
  mutable nvar : int array;
  mutable nlo : int array;
  mutable nhi : int array;
  mutable nnext : int array;
  mutable cap : int;
  mutable top : int;
  mutable free : int;
  mutable live : int;
  (* Unique subtables, per variable id. *)
  mutable buckets : int array array;
  mutable bmask : int array;
  mutable bcnt : int array;
  (* Operation cache: direct-mapped, lossy, cleared on collection. *)
  mutable ck1 : int array;
  mutable ck2 : int array;
  mutable ck3 : int array;
  mutable cres : int array;
  mutable cmask : int;
  (* External roots. *)
  mutable roots : node Weak.t;
  mutable nroots : int;
  (* Cumulative per-manager stats, with flushed watermarks so obs
     counters receive deltas at public-op boundaries. *)
  mutable s_uhit : int;
  mutable s_umiss : int;
  mutable s_chit : int;
  mutable s_cmiss : int;
  mutable s_swaps : int;
  mutable s_freed : int;
  mutable f_uhit : int;
  mutable f_umiss : int;
  mutable f_chit : int;
  mutable f_cmiss : int;
  mutable f_swaps : int;
  mutable f_freed : int;
  mutable f_live : int;
}

and node = { mgr : manager; idx : int }

type stats = {
  unique_hits : int;
  unique_misses : int;
  cache_hits : int;
  cache_misses : int;
  live_nodes : int;
  swaps : int;
  freed : int;
}

(* ------------------------------------------------------------------ *)
(* Construction *)

let initial_cache_bits = 8
let max_cache_bits = 20

let manager order =
  let vars = Array.of_list order in
  let n = Array.length vars in
  let var_ids =
    Array.to_list vars
    |> List.mapi (fun i v -> (v, i))
    |> List.fold_left (fun m (v, i) -> Var.Map.add v i m) Var.Map.empty
  in
  if Var.Map.cardinal var_ids <> n then
    invalid_arg "Bdd.manager: duplicate letter in order";
  let cap = 64 in
  let csz = 1 lsl initial_cache_bits in
  let mgr =
    {
      vars;
      var_ids;
      level_of = Array.init n (fun i -> i);
      var_at = Array.init n (fun i -> i);
      nvars = n;
      nvar = Array.make cap (-2);
      nlo = Array.make cap (-1);
      nhi = Array.make cap (-1);
      nnext = Array.make cap (-1);
      cap;
      top = 2;
      free = -1;
      live = 0;
      buckets = Array.init n (fun _ -> Array.make 8 (-1));
      bmask = Array.make (max n 1) 7;
      bcnt = Array.make (max n 1) 0;
      ck1 = Array.make csz (-1);
      ck2 = Array.make csz (-1);
      ck3 = Array.make csz (-1);
      cres = Array.make csz (-1);
      cmask = csz - 1;
      roots = Weak.create 64;
      nroots = 0;
      s_uhit = 0;
      s_umiss = 0;
      s_chit = 0;
      s_cmiss = 0;
      s_swaps = 0;
      s_freed = 0;
      f_uhit = 0;
      f_umiss = 0;
      f_chit = 0;
      f_cmiss = 0;
      f_swaps = 0;
      f_freed = 0;
      f_live = 0;
    }
  in
  mgr.nvar.(0) <- -1;
  mgr.nvar.(1) <- -1;
  mgr

let order mgr = List.init mgr.nvars (fun l -> mgr.vars.(mgr.var_at.(l)))
let live_nodes mgr = mgr.live

let stats mgr =
  {
    unique_hits = mgr.s_uhit;
    unique_misses = mgr.s_umiss;
    cache_hits = mgr.s_chit;
    cache_misses = mgr.s_cmiss;
    live_nodes = mgr.live;
    swaps = mgr.s_swaps;
    freed = mgr.s_freed;
  }

let varid_of mgr x =
  match Var.Map.find_opt x mgr.var_ids with
  | Some v -> v
  | None -> invalid_arg (Format.asprintf "Bdd: %a not in manager order" Var.pp x)

let extend mgr letters =
  let fresh =
    List.filter (fun x -> not (Var.Map.mem x mgr.var_ids)) letters
    |> List.sort_uniq Var.compare
  in
  if fresh <> [] then begin
    let n = mgr.nvars and k = List.length fresh in
    let grow a fill =
      let b = Array.make (n + k) fill in
      Array.blit a 0 b 0 n;
      b
    in
    mgr.vars <- grow mgr.vars (List.hd fresh);
    mgr.level_of <- grow mgr.level_of 0;
    mgr.var_at <- grow mgr.var_at 0;
    mgr.bmask <- grow mgr.bmask 7;
    mgr.bcnt <- grow mgr.bcnt 0;
    let bk = Array.make (n + k) [||] in
    Array.blit mgr.buckets 0 bk 0 n;
    mgr.buckets <- bk;
    List.iteri
      (fun j x ->
        let v = n + j in
        mgr.vars.(v) <- x;
        mgr.var_ids <- Var.Map.add x v mgr.var_ids;
        (* New letters sit at the bottom of the order: nothing above
           them changes, so every existing node keeps its meaning. *)
        mgr.level_of.(v) <- v;
        mgr.var_at.(v) <- v;
        mgr.buckets.(v) <- Array.make 8 (-1);
        mgr.bmask.(v) <- 7;
        mgr.bcnt.(v) <- 0)
      fresh;
    mgr.nvars <- n + k
  end

(* ------------------------------------------------------------------ *)
(* Store primitives *)

let level mgr i = if i < 2 then max_int else mgr.level_of.(mgr.nvar.(i))

(* Multiplicative mixing; masking with a small positive mask keeps the
   slot non-negative whatever the sign bit says. *)
let hash2 a b = (a * 0x9e3779b1) lxor (b * 0x85ebca6b)
let hash3 a b c = (a * 0x9e3779b1) lxor (b * 0x85ebca6b) lxor (c * 0xc2b2ae35)

let grow_store mgr =
  let ncap = mgr.cap * 2 in
  let grow a =
    let b = Array.make ncap (-2) in
    Array.blit a 0 b 0 mgr.cap;
    b
  in
  mgr.nvar <- grow mgr.nvar;
  mgr.nlo <- grow mgr.nlo;
  mgr.nhi <- grow mgr.nhi;
  mgr.nnext <- grow mgr.nnext;
  mgr.cap <- ncap

let grow_cache mgr =
  let csz = (mgr.cmask + 1) * 2 in
  mgr.ck1 <- Array.make csz (-1);
  mgr.ck2 <- Array.make csz (-1);
  mgr.ck3 <- Array.make csz (-1);
  mgr.cres <- Array.make csz (-1);
  mgr.cmask <- csz - 1

let clear_cache mgr = Array.fill mgr.ck1 0 (mgr.cmask + 1) (-1)

let alloc mgr =
  if mgr.free >= 0 then begin
    let i = mgr.free in
    mgr.free <- mgr.nnext.(i);
    i
  end
  else begin
    if mgr.top = mgr.cap then grow_store mgr;
    if mgr.top > 2 * (mgr.cmask + 1) && mgr.cmask + 1 < 1 lsl max_cache_bits
    then grow_cache mgr;
    let i = mgr.top in
    mgr.top <- mgr.top + 1;
    i
  end

let grow_subtable mgr v =
  let old = mgr.buckets.(v) in
  let nb = Array.length old * 2 in
  let b = Array.make nb (-1) in
  let mask = nb - 1 in
  Array.iter
    (fun head ->
      let i = ref head in
      while !i >= 0 do
        let next = mgr.nnext.(!i) in
        let h = hash2 mgr.nlo.(!i) mgr.nhi.(!i) land mask in
        mgr.nnext.(!i) <- b.(h);
        b.(h) <- !i;
        i := next
      done)
    old;
  mgr.buckets.(v) <- b;
  mgr.bmask.(v) <- mask

(* Insert a node already known to be absent (swap bookkeeping). *)
let insert_raw mgr v i =
  let h = hash2 mgr.nlo.(i) mgr.nhi.(i) land mgr.bmask.(v) in
  mgr.nnext.(i) <- mgr.buckets.(v).(h);
  mgr.buckets.(v).(h) <- i;
  mgr.bcnt.(v) <- mgr.bcnt.(v) + 1;
  if mgr.bcnt.(v) > 2 * (mgr.bmask.(v) + 1) then grow_subtable mgr v

let mk mgr v lo hi =
  if lo = hi then lo
  else begin
    let h = hash2 lo hi land mgr.bmask.(v) in
    let rec find i =
      if i < 0 then -1
      else if mgr.nlo.(i) = lo && mgr.nhi.(i) = hi then i
      else find mgr.nnext.(i)
    in
    let found = find mgr.buckets.(v).(h) in
    if found >= 0 then begin
      mgr.s_uhit <- mgr.s_uhit + 1;
      found
    end
    else begin
      mgr.s_umiss <- mgr.s_umiss + 1;
      let i = alloc mgr in
      mgr.nvar.(i) <- v;
      mgr.nlo.(i) <- lo;
      mgr.nhi.(i) <- hi;
      (* Re-read the bucket head: [alloc] may have grown the cache but
         never the subtable, so [h] is still valid. *)
      mgr.nnext.(i) <- mgr.buckets.(v).(h);
      mgr.buckets.(v).(h) <- i;
      mgr.bcnt.(v) <- mgr.bcnt.(v) + 1;
      mgr.live <- mgr.live + 1;
      if mgr.bcnt.(v) > 2 * (mgr.bmask.(v) + 1) then grow_subtable mgr v;
      i
    end
  end

(* ------------------------------------------------------------------ *)
(* Operation cache *)

let tag_ite = 1
let tag_exists = 2
let tag_relprod = 3
let tag_restrict = 4
let tag_flip = 5

let cache_find mgr k1 k2 k3 =
  let h = hash3 k1 k2 k3 land mgr.cmask in
  if mgr.ck1.(h) = k1 && mgr.ck2.(h) = k2 && mgr.ck3.(h) = k3 then begin
    mgr.s_chit <- mgr.s_chit + 1;
    mgr.cres.(h)
  end
  else begin
    mgr.s_cmiss <- mgr.s_cmiss + 1;
    -1
  end

let cache_store mgr k1 k2 k3 r =
  let h = hash3 k1 k2 k3 land mgr.cmask in
  mgr.ck1.(h) <- k1;
  mgr.ck2.(h) <- k2;
  mgr.ck3.(h) <- k3;
  mgr.cres.(h) <- r

(* ------------------------------------------------------------------ *)
(* Core recursions (raw indices) *)

let rec ite_rec mgr f g h =
  (* Terminal rules double as the and/or leaf short-circuits: an
     absorbing or identity operand resolves here without visiting the
     other argument at all. *)
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else begin
    let g = if g = f then 1 else g in
    let h = if h = f then 0 else h in
    if g = 1 && h = 0 then f
    else begin
      let k3 = (h lsl 3) lor tag_ite in
      let r = cache_find mgr f g k3 in
      if r >= 0 then r
      else begin
        let lf = level mgr f and lg = level mgr g and lh = level mgr h in
        let m = min lf (min lg lh) in
        let f0 = if lf = m then mgr.nlo.(f) else f in
        let f1 = if lf = m then mgr.nhi.(f) else f in
        let g0 = if lg = m then mgr.nlo.(g) else g in
        let g1 = if lg = m then mgr.nhi.(g) else g in
        let h0 = if lh = m then mgr.nlo.(h) else h in
        let h1 = if lh = m then mgr.nhi.(h) else h in
        let r0 = ite_rec mgr f0 g0 h0 in
        let r1 = ite_rec mgr f1 g1 h1 in
        let r = mk mgr mgr.var_at.(m) r0 r1 in
        cache_store mgr f g k3 r;
        r
      end
    end
  end

let and_rec mgr f g = ite_rec mgr f g 0
let or_rec mgr f g = ite_rec mgr f 1 g
let not_rec mgr f = ite_rec mgr f 0 1
let imp_rec mgr f g = ite_rec mgr f g 1
let xor_rec mgr f g = ite_rec mgr f (not_rec mgr g) g
let iff_rec mgr f g = ite_rec mgr f g (not_rec mgr g)

(* Cubes are positive chains [mk v bot rest]; for restrict cubes the
   dead branch marks the polarity. *)
let cube_of_varids mgr vids =
  let sorted =
    List.sort_uniq compare vids
    |> List.sort (fun a b -> compare mgr.level_of.(b) mgr.level_of.(a))
  in
  List.fold_left (fun acc v -> mk mgr v 0 acc) 1 sorted

let rec skip_cube mgr cube lvl =
  if cube >= 2 && level mgr cube < lvl then skip_cube mgr mgr.nhi.(cube) lvl
  else cube

let rec exists_rec mgr f cube =
  if f < 2 then f
  else begin
    let lf = level mgr f in
    let cube = skip_cube mgr cube lf in
    if cube = 1 then f
    else begin
      let r = cache_find mgr f cube tag_exists in
      if r >= 0 then r
      else begin
        let lc = level mgr cube in
        let f0 = mgr.nlo.(f) and f1 = mgr.nhi.(f) in
        let r =
          if lc = lf then
            let cube' = mgr.nhi.(cube) in
            or_rec mgr (exists_rec mgr f0 cube') (exists_rec mgr f1 cube')
          else
            mk mgr mgr.nvar.(f) (exists_rec mgr f0 cube)
              (exists_rec mgr f1 cube)
        in
        cache_store mgr f cube tag_exists r;
        r
      end
    end
  end

let forall_rec mgr f cube = not_rec mgr (exists_rec mgr (not_rec mgr f) cube)

let rec relprod_rec mgr f g cube =
  if f = 0 || g = 0 then 0
  else if f = 1 && g = 1 then 1
  else if f = 1 then exists_rec mgr g cube
  else if g = 1 then exists_rec mgr f cube
  else if f = g then exists_rec mgr f cube
  else begin
    let f, g = if f <= g then (f, g) else (g, f) in
    let lf = level mgr f and lg = level mgr g in
    let m = min lf lg in
    let cube = skip_cube mgr cube m in
    if cube = 1 then and_rec mgr f g
    else begin
      let k3 = (cube lsl 3) lor tag_relprod in
      let r = cache_find mgr f g k3 in
      if r >= 0 then r
      else begin
        let f0 = if lf = m then mgr.nlo.(f) else f in
        let f1 = if lf = m then mgr.nhi.(f) else f in
        let g0 = if lg = m then mgr.nlo.(g) else g in
        let g1 = if lg = m then mgr.nhi.(g) else g in
        let r =
          if level mgr cube = m then begin
            let cube' = mgr.nhi.(cube) in
            or_rec mgr (relprod_rec mgr f0 g0 cube')
              (relprod_rec mgr f1 g1 cube')
          end
          else
            mk mgr mgr.var_at.(m) (relprod_rec mgr f0 g0 cube)
              (relprod_rec mgr f1 g1 cube)
        in
        cache_store mgr f g k3 r;
        r
      end
    end
  end

(* Restrict cubes: positive literal [mk v bot rest], negative literal
   [mk v rest bot]. *)
let restrict_next mgr cube =
  if mgr.nlo.(cube) = 0 then mgr.nhi.(cube) else mgr.nlo.(cube)

let rec restrict_rec mgr f cube =
  if f < 2 || cube = 1 then f
  else begin
    let lf = level mgr f and lc = level mgr cube in
    if lc < lf then restrict_rec mgr f (restrict_next mgr cube)
    else begin
      let r = cache_find mgr f cube tag_restrict in
      if r >= 0 then r
      else begin
        let r =
          if lc = lf then
            if mgr.nlo.(cube) = 0 then
              restrict_rec mgr mgr.nhi.(f) mgr.nhi.(cube)
            else restrict_rec mgr mgr.nlo.(f) mgr.nlo.(cube)
          else
            mk mgr mgr.nvar.(f)
              (restrict_rec mgr mgr.nlo.(f) cube)
              (restrict_rec mgr mgr.nhi.(f) cube)
        in
        cache_store mgr f cube tag_restrict r;
        r
      end
    end
  end

let rec flip_rec mgr v f =
  let lv = mgr.level_of.(v) in
  let lf = level mgr f in
  if lf > lv then f
  else if lf = lv then mk mgr v mgr.nhi.(f) mgr.nlo.(f)
  else begin
    let r = cache_find mgr f v tag_flip in
    if r >= 0 then r
    else begin
      let r =
        mk mgr mgr.nvar.(f)
          (flip_rec mgr v mgr.nlo.(f))
          (flip_rec mgr v mgr.nhi.(f))
      in
      cache_store mgr f v tag_flip r;
      r
    end
  end

let raw_var mgr x = mk mgr (varid_of mgr x) 0 1

let rec build mgr (f : Formula.t) =
  match f with
  | True -> 1
  | False -> 0
  | Var x -> raw_var mgr x
  | Not g -> not_rec mgr (build mgr g)
  | And gs ->
      (* Early exit once the accumulator hits the absorbing terminal:
         the remaining conjuncts are never compiled at all. *)
      List.fold_left
        (fun acc g -> if acc = 0 then 0 else and_rec mgr acc (build mgr g))
        1 gs
  | Or gs ->
      List.fold_left
        (fun acc g -> if acc = 1 then 1 else or_rec mgr acc (build mgr g))
        0 gs
  | Imp (a, b) ->
      let a' = build mgr a in
      if a' = 0 then 1 else imp_rec mgr a' (build mgr b)
  | Iff (a, b) -> iff_rec mgr (build mgr a) (build mgr b)
  | Xor (a, b) -> xor_rec mgr (build mgr a) (build mgr b)

(* ------------------------------------------------------------------ *)
(* Roots, collection, reordering *)

let box mgr idx =
  let b = { mgr; idx } in
  let len = Weak.length mgr.roots in
  if mgr.nroots >= len then begin
    let k = ref 0 in
    for j = 0 to len - 1 do
      match Weak.get mgr.roots j with
      | Some _ as v ->
          Weak.set mgr.roots !k v;
          incr k
      | None -> ()
    done;
    for j = !k to len - 1 do
      Weak.set mgr.roots j None
    done;
    mgr.nroots <- !k;
    if mgr.nroots >= len - (len / 4) then begin
      let bigger = Weak.create (len * 2) in
      Weak.blit mgr.roots 0 bigger 0 len;
      mgr.roots <- bigger
    end
  end;
  Weak.set mgr.roots mgr.nroots (Some b);
  mgr.nroots <- mgr.nroots + 1;
  b

let gc mgr =
  let marked = Bytes.make mgr.top '\000' in
  (* Depth is bounded by the number of levels, so recursion is safe. *)
  let rec mark i =
    if i >= 2 && Bytes.get marked i = '\000' then begin
      Bytes.set marked i '\001';
      mark mgr.nlo.(i);
      mark mgr.nhi.(i)
    end
  in
  let k = ref 0 in
  for j = 0 to mgr.nroots - 1 do
    match Weak.get mgr.roots j with
    | Some b as v ->
        mark b.idx;
        Weak.set mgr.roots !k v;
        incr k
    | None -> ()
  done;
  for j = !k to mgr.nroots - 1 do
    Weak.set mgr.roots j None
  done;
  mgr.nroots <- !k;
  for v = 0 to mgr.nvars - 1 do
    Array.fill mgr.buckets.(v) 0 (Array.length mgr.buckets.(v)) (-1);
    mgr.bcnt.(v) <- 0
  done;
  mgr.free <- -1;
  for i = mgr.top - 1 downto 2 do
    if mgr.nvar.(i) >= 0 then begin
      if Bytes.get marked i = '\001' then begin
        let v = mgr.nvar.(i) in
        let h = hash2 mgr.nlo.(i) mgr.nhi.(i) land mgr.bmask.(v) in
        mgr.nnext.(i) <- mgr.buckets.(v).(h);
        mgr.buckets.(v).(h) <- i;
        mgr.bcnt.(v) <- mgr.bcnt.(v) + 1
      end
      else begin
        mgr.nvar.(i) <- -2;
        mgr.nnext.(i) <- mgr.free;
        mgr.free <- i;
        mgr.live <- mgr.live - 1;
        mgr.s_freed <- mgr.s_freed + 1
      end
    end
    else if mgr.nvar.(i) = -2 then begin
      mgr.nnext.(i) <- mgr.free;
      mgr.free <- i
    end
  done;
  (* Freed indices will be reused, so cached results keyed on them are
     poison: drop the whole cache. *)
  clear_cache mgr

(* Swap the variables at levels [l] and [l+1] in place.  Nodes at
   level [l] that do not depend on the lower variable keep their slot
   and fields; nodes that do are rewritten in place to test the lower
   variable first, so external indices never change. *)
let swap_levels mgr l =
  let u = mgr.var_at.(l) and w = mgr.var_at.(l + 1) in
  let unodes = ref [] in
  Array.iter
    (fun head ->
      let i = ref head in
      while !i >= 0 do
        unodes := !i :: !unodes;
        i := mgr.nnext.(!i)
      done)
    mgr.buckets.(u);
  Array.fill mgr.buckets.(u) 0 (Array.length mgr.buckets.(u)) (-1);
  mgr.bcnt.(u) <- 0;
  (* Two passes over the snapshot: every keep-node goes back into [u]'s
     subtable before any move-node is rewritten, so the [mk] calls below
     find them instead of minting duplicates into the cleared table —
     a canonicity (and size) leak otherwise. *)
  let depends_on_w i =
    let f0 = mgr.nlo.(i) and f1 = mgr.nhi.(i) in
    (f0 >= 2 && mgr.nvar.(f0) = w) || (f1 >= 2 && mgr.nvar.(f1) = w)
  in
  List.iter (fun i -> if not (depends_on_w i) then insert_raw mgr u i) !unodes;
  List.iter
    (fun i ->
      if depends_on_w i then begin
        let f0 = mgr.nlo.(i) and f1 = mgr.nhi.(i) in
        let lo_w = f0 >= 2 && mgr.nvar.(f0) = w in
        let hi_w = f1 >= 2 && mgr.nvar.(f1) = w in
        let f00 = if lo_w then mgr.nlo.(f0) else f0 in
        let f01 = if lo_w then mgr.nhi.(f0) else f0 in
        let f10 = if hi_w then mgr.nlo.(f1) else f1 in
        let f11 = if hi_w then mgr.nhi.(f1) else f1 in
        let n0 = mk mgr u f00 f10 in
        let n1 = mk mgr u f01 f11 in
        mgr.nvar.(i) <- w;
        mgr.nlo.(i) <- n0;
        mgr.nhi.(i) <- n1;
        insert_raw mgr w i
      end)
    !unodes;
  mgr.var_at.(l) <- w;
  mgr.var_at.(l + 1) <- u;
  mgr.level_of.(w) <- l;
  mgr.level_of.(u) <- l + 1;
  mgr.s_swaps <- mgr.s_swaps + 1

let flush_stats mgr =
  let flush counter current mark set =
    let d = current - mark in
    if d <> 0 then Obs.add counter d;
    set current
  in
  flush c_uhit mgr.s_uhit mgr.f_uhit (fun v -> mgr.f_uhit <- v);
  flush c_umiss mgr.s_umiss mgr.f_umiss (fun v -> mgr.f_umiss <- v);
  flush c_chit mgr.s_chit mgr.f_chit (fun v -> mgr.f_chit <- v);
  flush c_cmiss mgr.s_cmiss mgr.f_cmiss (fun v -> mgr.f_cmiss <- v);
  flush c_swaps mgr.s_swaps mgr.f_swaps (fun v -> mgr.f_swaps <- v);
  flush c_freed mgr.s_freed mgr.f_freed (fun v -> mgr.f_freed <- v);
  flush c_live mgr.live mgr.f_live (fun v -> mgr.f_live <- v)

(* Rudell sifting.  A swap rewrites in place but never frees, so the
   allocated count drifts up along a trajectory and would mask every
   improvement; collecting after each swap makes [live] the exact
   diagram size at the current position.  The starting position is one
   of the observed candidates ([best] starts there), so settling at the
   argmin can never leave a variable worse than it began:
   true(best) <= true(start). *)
let sift_internal mgr =
  gc mgr;
  let n = mgr.nvars in
  if n > 1 then begin
    let by_size =
      List.init n (fun v -> v)
      |> List.sort (fun a b -> compare mgr.bcnt.(b) mgr.bcnt.(a))
    in
    List.iter
      (fun v ->
        if mgr.bcnt.(v) > 0 then begin
          let start = mgr.live in
          let cap = (start * 12 / 10) + 4 in
          let best = ref start in
          let best_l = ref mgr.level_of.(v) in
          let step l =
            swap_levels mgr l;
            gc mgr;
            if mgr.live < !best then begin
              best := mgr.live;
              best_l := mgr.level_of.(v)
            end
          in
          while mgr.level_of.(v) < n - 1 && mgr.live <= cap do
            step mgr.level_of.(v)
          done;
          while mgr.level_of.(v) > 0 && mgr.live <= cap do
            step (mgr.level_of.(v) - 1)
          done;
          while mgr.level_of.(v) < !best_l do
            swap_levels mgr mgr.level_of.(v)
          done;
          while mgr.level_of.(v) > !best_l do
            swap_levels mgr (mgr.level_of.(v) - 1)
          done;
          gc mgr
        end)
      by_size
  end

let sift mgr =
  Obs.with_span "bdd.sift" (fun () ->
      sift_internal mgr;
      flush_stats mgr)

let finish mgr raw =
  let b = box mgr raw in
  flush_stats mgr;
  b

(* ------------------------------------------------------------------ *)
(* Public operations *)

let check_mgr name mgr n =
  if mgr != n.mgr then
    invalid_arg (Printf.sprintf "Bdd.%s: node from a different manager" name)

let check2 name a b =
  if a.mgr != b.mgr then
    invalid_arg (Printf.sprintf "Bdd.%s: nodes from different managers" name);
  a.mgr

let bot mgr = box mgr 0
let top mgr = box mgr 1
let is_true n = n.idx = 1
let is_false n = n.idx = 0
let equal a b = a.mgr == b.mgr && a.idx = b.idx

let var_node mgr x =
  Obs.with_span "bdd.apply" (fun () -> finish mgr (raw_var mgr x))

let of_formula mgr f =
  Obs.with_span "bdd.compile" (fun () -> finish mgr (build mgr f))

let of_models mgr ms =
  Obs.with_span "bdd.compile" (fun () ->
      let minterm m =
        let acc = ref 1 in
        for l = mgr.nvars - 1 downto 0 do
          let v = mgr.var_at.(l) in
          if Var.Set.mem mgr.vars.(v) m then acc := mk mgr v 0 !acc
          else acc := mk mgr v !acc 0
        done;
        !acc
      in
      let raw =
        List.fold_left
          (fun acc m -> if acc = 1 then 1 else or_rec mgr acc (minterm m))
          0 ms
      in
      finish mgr raw)

let ite f g h =
  let mgr = check2 "ite" f g in
  check_mgr "ite" mgr h;
  Obs.with_span "bdd.apply" (fun () ->
      finish mgr (ite_rec mgr f.idx g.idx h.idx))

let apply2 name op a b =
  let mgr = check2 name a b in
  Obs.with_span "bdd.apply" (fun () -> finish mgr (op mgr a.idx b.idx))

let and_ a b = apply2 "and_" and_rec a b
let or_ a b = apply2 "or_" or_rec a b
let xor_ a b = apply2 "xor_" xor_rec a b
let imp_ a b = apply2 "imp_" imp_rec a b
let iff_ a b = apply2 "iff_" iff_rec a b

let not_ a =
  Obs.with_span "bdd.apply" (fun () -> finish a.mgr (not_rec a.mgr a.idx))

let cube_of_set mgr vs =
  cube_of_varids mgr (List.map (varid_of mgr) (Var.Set.elements vs))

let exists vs a =
  let mgr = a.mgr in
  Obs.with_span "bdd.apply" (fun () ->
      finish mgr (exists_rec mgr a.idx (cube_of_set mgr vs)))

let forall vs a =
  let mgr = a.mgr in
  Obs.with_span "bdd.apply" (fun () ->
      finish mgr (forall_rec mgr a.idx (cube_of_set mgr vs)))

let and_exists vs a b =
  let mgr = check2 "and_exists" a b in
  Obs.with_span "bdd.apply" (fun () ->
      finish mgr (relprod_rec mgr a.idx b.idx (cube_of_set mgr vs)))

let cube_of_lits mgr lits =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (x, b) ->
      let v = varid_of mgr x in
      match Hashtbl.find_opt tbl v with
      | Some b' when b' <> b ->
          invalid_arg
            (Format.asprintf "Bdd.restrict: conflicting literals for %a" Var.pp
               x)
      | _ -> Hashtbl.replace tbl v b)
    lits;
  let sorted =
    Hashtbl.fold (fun v b acc -> (v, b) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) ->
           compare mgr.level_of.(b) mgr.level_of.(a))
  in
  List.fold_left
    (fun acc (v, b) -> if b then mk mgr v 0 acc else mk mgr v acc 0)
    1 sorted

let restrict lits a =
  let mgr = a.mgr in
  Obs.with_span "bdd.apply" (fun () ->
      finish mgr (restrict_rec mgr a.idx (cube_of_lits mgr lits)))

let compose x g f =
  let mgr = check2 "compose" g f in
  Obs.with_span "bdd.apply" (fun () ->
      let f1 = restrict_rec mgr f.idx (cube_of_lits mgr [ (x, true) ]) in
      let f0 = restrict_rec mgr f.idx (cube_of_lits mgr [ (x, false) ]) in
      finish mgr (ite_rec mgr g.idx f1 f0))

let flip x a =
  let mgr = a.mgr in
  Obs.with_span "bdd.apply" (fun () ->
      finish mgr (flip_rec mgr (varid_of mgr x) a.idx))

(* ------------------------------------------------------------------ *)
(* Inspection *)

let node_count n =
  let mgr = n.mgr in
  let seen = Hashtbl.create 64 in
  let rec go i =
    if i >= 2 && not (Hashtbl.mem seen i) then begin
      Hashtbl.add seen i ();
      go mgr.nlo.(i);
      go mgr.nhi.(i)
    end
  in
  go n.idx;
  Hashtbl.length seen

let sat_count mgr node =
  check_mgr "sat_count" mgr node;
  let n = mgr.nvars in
  if n > Sys.int_size - 2 then
    invalid_arg "Bdd.sat_count: too many variables for an int model count";
  let memo = Hashtbl.create 64 in
  (* count of assignments to variables at level >= from *)
  let rec go i from =
    if i = 0 then 0
    else if i = 1 then
      (* lint: shift-ok 0 <= from <= level bounds give n - from <= n,
         and the entry guard rejects n > Sys.int_size - 2 *)
      1 lsl (n - from)
    else begin
      let key = (i, from) in
      match Hashtbl.find_opt memo key with
      | Some c -> c
      | None ->
          let l = mgr.level_of.(mgr.nvar.(i)) in
          let below = go mgr.nlo.(i) (l + 1) + go mgr.nhi.(i) (l + 1) in
          (* lint: shift-ok l - from < n <= Sys.int_size - 2 (entry
             guard above) *)
          let c = below * (1 lsl (l - from)) in
          Hashtbl.add memo key c;
          c
    end
  in
  go node.idx 0

let models ?(cap = Limits.default_cap) mgr node =
  check_mgr "models" mgr node;
  let n = mgr.nvars in
  let out = ref [] in
  let count = ref 0 in
  let emit acc =
    incr count;
    if !count > cap then Limits.cap_exceeded "bdd" cap;
    out := acc :: !out
  in
  (* enumerate, expanding skipped levels both ways under the cap *)
  let rec expand from upto acc k =
    if from >= upto then k acc
    else begin
      expand (from + 1) upto acc k;
      expand (from + 1) upto (Var.Set.add mgr.vars.(mgr.var_at.(from)) acc) k
    end
  in
  let rec go i from acc =
    if i = 1 then expand from n acc emit
    else if i > 1 then begin
      let l = mgr.level_of.(mgr.nvar.(i)) in
      expand from l acc (fun acc ->
          go mgr.nlo.(i) (l + 1) acc;
          go mgr.nhi.(i) (l + 1) (Var.Set.add mgr.vars.(mgr.nvar.(i)) acc))
    end
  in
  go node.idx 0 Var.Set.empty;
  List.sort_uniq Var.Set.compare !out

let eval mgr node m =
  check_mgr "eval" mgr node;
  let rec go i =
    if i < 2 then i = 1
    else if Var.Set.mem mgr.vars.(mgr.nvar.(i)) m then go mgr.nhi.(i)
    else go mgr.nlo.(i)
  in
  go node.idx

let to_formula mgr node =
  check_mgr "to_formula" mgr node;
  let memo = Hashtbl.create 64 in
  let rec go i =
    if i = 1 then Formula.top
    else if i = 0 then Formula.bot
    else
      match Hashtbl.find_opt memo i with
      | Some f -> f
      | None ->
          let x = Formula.var mgr.vars.(mgr.nvar.(i)) in
          let f =
            Formula.or_
              [
                Formula.conj2 x (go mgr.nhi.(i));
                Formula.conj2 (Formula.not_ x) (go mgr.nlo.(i));
              ]
          in
          Hashtbl.add memo i f;
          f
  in
  go node.idx

(* ------------------------------------------------------------------ *)
(* FORCE-style static order from formula structure *)

let force_order f =
  let all = Var.Set.elements (Formula.vars f) in
  match all with
  | [] | [ _ ] -> all
  | _ ->
      (* Hyperedges: variable sets of minimal subformulas spanning 2-8
         letters; iterate center-of-gravity averaging (Aloul et al.). *)
      let edges = ref [] in
      let rec collect (g : Formula.t) =
        let vs = Formula.vars g in
        let c = Var.Set.cardinal vs in
        if c >= 2 && c <= 8 then edges := vs :: !edges
        else if c > 8 then
          match g with
          | And gs | Or gs -> List.iter collect gs
          | Not h -> collect h
          | Imp (a, b) | Iff (a, b) | Xor (a, b) ->
              collect a;
              collect b
          | True | False | Var _ -> ()
      in
      collect f;
      if !edges = [] then all
      else begin
        let pos = Hashtbl.create 64 in
        List.iteri (fun i v -> Hashtbl.replace pos v (float_of_int i)) all;
        let edges = List.map Var.Set.elements !edges in
        for _round = 1 to 20 do
          let sum = Hashtbl.create 64 in
          let cnt = Hashtbl.create 64 in
          List.iter
            (fun e ->
              let cog =
                List.fold_left (fun s v -> s +. Hashtbl.find pos v) 0.0 e
                /. float_of_int (List.length e)
              in
              List.iter
                (fun v ->
                  Hashtbl.replace sum v
                    (cog +. (try Hashtbl.find sum v with Not_found -> 0.0));
                  Hashtbl.replace cnt v
                    (1 + (try Hashtbl.find cnt v with Not_found -> 0)))
                e)
            edges;
          Hashtbl.iter
            (fun v s -> Hashtbl.replace pos v (s /. float_of_int (Hashtbl.find cnt v)))
            sum
        done;
        List.stable_sort
          (fun a b ->
            let c = compare (Hashtbl.find pos a) (Hashtbl.find pos b) in
            if c <> 0 then c else Var.compare a b)
          all
      end

(* ------------------------------------------------------------------ *)
(* Revision on the compiled form *)

module Revise = struct
  (* All operators follow the boundary conventions of
     [Model_based.select]: P unsatisfiable yields the inconsistent
     result, T unsatisfiable (with P satisfiable) yields P.  Distances
     are Hamming distances over the manager's alphabet. *)

  (* One-step Hamming dilation: the union of [d] with every
     single-variable flip of [d].  Each flip must act on the original
     [d] — flipping the accumulator instead would compound the flips
     and blow the ball out to radius [nvars] in one call. *)
  let dilate mgr d =
    let acc = ref d in
    for v = 0 to mgr.nvars - 1 do
      acc := or_rec mgr !acc (flip_rec mgr v d)
    done;
    !acc

  (* Dalal: grow a Hamming ball around T until it meets P; the
     intersection at the first touching radius is the revision. *)
  let dalal_raw mgr t p =
    if p = 0 then 0
    else if t = 0 then p
    else begin
      let rec loop d =
        let i = and_rec mgr d p in
        if i <> 0 then i else loop (dilate mgr d)
      in
      loop t
    end

  (* Forbus: peel T into layers by distance-to-P; the layer at radius
     k selects the P-models at distance exactly k from it, which is
     the k-sphere of the layer intersected with P (no P-model can be
     closer than k to a layer-k model). *)
  let forbus_raw mgr t p =
    if p = 0 then 0
    else if t = 0 then p
    else begin
      let result = ref 0 in
      let remaining = ref t in
      let ball = ref p in
      let prev_ball = ref 0 in
      let k = ref 0 in
      while !remaining <> 0 do
        let ring = and_rec mgr !ball (not_rec mgr !prev_ball) in
        let layer = and_rec mgr !remaining ring in
        if layer <> 0 then begin
          let sphere =
            if !k = 0 then layer
            else begin
              let d = ref layer in
              let d_prev = ref layer in
              for _j = 1 to !k do
                d_prev := !d;
                d := dilate mgr !d
              done;
              and_rec mgr !d (not_rec mgr !d_prev)
            end
          in
          result := or_rec mgr !result (and_rec mgr p sphere);
          remaining := and_rec mgr !remaining (not_rec mgr layer)
        end;
        prev_ball := !ball;
        ball := dilate mgr !ball;
        incr k
      done;
      !result
    end

  (* Relational encodings share a scratch manager holding interleaved
     copies of the alphabet; structural migration between managers is
     sound because the copies preserve the base relative order. *)
  let scratch_copies mgr suffixes =
    let n = mgr.nvars in
    let base = Array.init n (fun l -> mgr.vars.(mgr.var_at.(l))) in
    let copies =
      List.map (fun s -> Array.map (Var.copy_of ~suffix:s) base) suffixes
    in
    let scratch_order =
      List.concat
        (List.init n (fun i ->
             base.(i) :: List.map (fun c -> c.(i)) copies))
    in
    (manager scratch_order, base, copies)

  let migrate src dst map f =
    let memo = Hashtbl.create 64 in
    let rec go i =
      if i < 2 then i
      else
        match Hashtbl.find_opt memo i with
        | Some r -> r
        | None ->
            let x = Var.Map.find src.vars.(src.nvar.(i)) map in
            let r =
              mk dst (varid_of dst x) (go src.nlo.(i)) (go src.nhi.(i))
            in
            Hashtbl.add memo i r;
            r
    in
    go f

  let id_map letters =
    List.fold_left (fun m x -> Var.Map.add x x m) Var.Map.empty letters

  let pair_map from_arr to_arr =
    let m = ref Var.Map.empty in
    Array.iteri (fun i x -> m := Var.Map.add x to_arr.(i) !m) from_arr;
    !m

  (* Winslett: N |= P survives iff some M |= T has no P-model N' with
     a strictly smaller difference to M.  Encoded over three copies of
     the alphabet: M on the base letters, N on the first copy, the
     challenger N' on the second. *)
  let winslett_raw mgr t p =
    if p = 0 then 0
    else if t = 0 then p
    else begin
      let smgr, base, copies = scratch_copies mgr [ "'rv1"; "'rv2" ] in
      let c1, c2 =
        match copies with [ a; b ] -> (a, b) | _ -> assert false
      in
      let tm = migrate mgr smgr (id_map (Array.to_list base)) t in
      let pn = migrate mgr smgr (pair_map base c1) p in
      let pn' = migrate mgr smgr (pair_map base c2) p in
      let subset = ref 1 and strict = ref 0 in
      Array.iteri
        (fun i x ->
          let xb = raw_var smgr x in
          let x1 = raw_var smgr c1.(i) in
          let x2 = raw_var smgr c2.(i) in
          let d1 = xor_rec smgr xb x1 in
          let d2 = xor_rec smgr xb x2 in
          subset := and_rec smgr !subset (imp_rec smgr d2 d1);
          strict := or_rec smgr !strict (and_rec smgr d1 (not_rec smgr d2)))
        base;
      let challenger =
        and_rec smgr pn' (and_rec smgr !subset !strict)
      in
      let cube2 =
        cube_of_varids smgr
          (Array.to_list (Array.map (varid_of smgr) c2))
      in
      let dominated = exists_rec smgr challenger cube2 in
      let good = and_rec smgr tm (and_rec smgr pn (not_rec smgr dominated)) in
      let cube_m =
        cube_of_varids smgr
          (Array.to_list (Array.map (varid_of smgr) base))
      in
      let res_n = exists_rec smgr good cube_m in
      migrate smgr mgr (pair_map c1 base) res_n
    end

  (* Satoh-minimal pairs (M, N): T x P pairs whose difference set is
     subset-minimal across all pairs.  Encoded over four copies: the
     pair on (base, c1), the challenger pair on (c2, c3). *)
  let minpairs smgr mgr base c1 c2 c3 t p =
    let tm = migrate mgr smgr (id_map (Array.to_list base)) t in
    let pn = migrate mgr smgr (pair_map base c1) p in
    let tm' = migrate mgr smgr (pair_map base c2) t in
    let pn' = migrate mgr smgr (pair_map base c3) p in
    let subset = ref 1 and strict = ref 0 in
    Array.iteri
      (fun i x ->
        let d =
          xor_rec smgr (raw_var smgr x) (raw_var smgr c1.(i))
        in
        let d' =
          xor_rec smgr (raw_var smgr c2.(i)) (raw_var smgr c3.(i))
        in
        subset := and_rec smgr !subset (imp_rec smgr d' d);
        strict := or_rec smgr !strict (and_rec smgr d (not_rec smgr d')))
      base;
    let challenger =
      and_rec smgr tm' (and_rec smgr pn' (and_rec smgr !subset !strict))
    in
    let cube23 =
      cube_of_varids smgr
        (Array.to_list (Array.map (varid_of smgr) c2)
        @ Array.to_list (Array.map (varid_of smgr) c3))
    in
    let dominated = exists_rec smgr challenger cube23 in
    and_rec smgr tm (and_rec smgr pn (not_rec smgr dominated))

  let satoh_raw mgr t p =
    if p = 0 then 0
    else if t = 0 then p
    else begin
      let smgr, base, copies =
        scratch_copies mgr [ "'rv1"; "'rv2"; "'rv3" ]
      in
      let c1, c2, c3 =
        match copies with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      let mp = minpairs smgr mgr base c1 c2 c3 t p in
      let cube_m =
        cube_of_varids smgr
          (Array.to_list (Array.map (varid_of smgr) base))
      in
      let res_n = exists_rec smgr mp cube_m in
      migrate smgr mgr (pair_map c1 base) res_n
    end

  (* Weber: Omega is the union of the Satoh-minimal difference sets;
     the revision is P conjoined with T forgotten on Omega. *)
  let weber_raw mgr t p =
    if p = 0 then 0
    else if t = 0 then p
    else begin
      let smgr, base, copies =
        scratch_copies mgr [ "'rv1"; "'rv2"; "'rv3" ]
      in
      let c1, c2, c3 =
        match copies with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      let mp = minpairs smgr mgr base c1 c2 c3 t p in
      let omega = ref [] in
      Array.iteri
        (fun i x ->
          let d = xor_rec smgr (raw_var smgr x) (raw_var smgr c1.(i)) in
          if and_rec smgr mp d <> 0 then omega := varid_of mgr x :: !omega)
        base;
      let forgotten = exists_rec mgr t (cube_of_varids mgr !omega) in
      and_rec mgr p forgotten
    end

  let borgida_raw mgr t p =
    let i = and_rec mgr t p in
    if i <> 0 then i else winslett_raw mgr t p

  let lift name raw mgr t p =
    check_mgr name mgr t;
    check_mgr name mgr p;
    Obs.with_span "bdd.revise" (fun () -> finish mgr (raw mgr t.idx p.idx))

  let dalal mgr t p = lift "Revise.dalal" dalal_raw mgr t p
  let forbus mgr t p = lift "Revise.forbus" forbus_raw mgr t p
  let winslett mgr t p = lift "Revise.winslett" winslett_raw mgr t p
  let satoh mgr t p = lift "Revise.satoh" satoh_raw mgr t p
  let weber mgr t p = lift "Revise.weber" weber_raw mgr t p
  let borgida mgr t p = lift "Revise.borgida" borgida_raw mgr t p
end
