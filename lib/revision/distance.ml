open Logic
module Pool = Revkb_parallel.Pool
module Obs = Revkb_obs.Obs

module type S = sig
  module M : Mask.S

  val mu : M.t -> M.set -> M.set
  val k_pointwise : M.t -> M.set -> int
  val delta : M.set -> M.set -> M.set
  val k_global : M.set -> M.set -> int
  val omega : M.set -> M.set -> M.t
end

(* Unified contract: every distance is taken over nonempty model sets.
   The paper's definitions presuppose satisfiable T and P; callers
   (Model_based.select) dispatch the degenerate cases before measuring. *)
let require name n =
  if n = 0 then invalid_arg ("Distance." ^ name ^ ": empty model set")

(* Below this many (m, n) pairs the batch overhead beats the win. *)
let parallel_threshold = 1 lsl 14

(* Per-chunk frontier sizes: the live antichain is the whole memory
   story of the streaming reductions, so its size distribution is the
   number to watch.  Recorded once per chunk, far off the per-candidate
   Frontier.add path; one histogram for both mask representations. *)
let h_frontier = Obs.hist "dist.frontier_size"

let size_attrs nt np () = [ ("nt", string_of_int nt); ("np", string_of_int np) ]

(* Streaming reductions: δ, k and Ω fold over Mod(T) × Mod(P) without
   ever materializing the nt·np difference array — each chunk of Mod(T)
   keeps a min-inclusion frontier (or a running min) and chunks merge at
   the barrier.  The minimal antichain of a candidate stream is
   order-independent and min_incl canonicalizes the merged frontiers, so
   sequential and parallel runs (any job count, any chunking) return
   bit-identical sets.  The inner minima are plain int loops: the
   functor's calls stay monomorphic. *)
module Make (M : Mask.S) = struct
  module M = M

  let mu m p_models =
    require "mu" (Array.length p_models);
    let fr = M.Frontier.create () in
    Array.iter (fun n -> M.Frontier.add fr (M.diff m n)) p_models;
    M.Frontier.to_set fr

  let k_pointwise m p_models =
    require "k_pointwise" (Array.length p_models);
    let acc = ref max_int in
    for i = 0 to Array.length p_models - 1 do
      acc := Int.min !acc (M.hamming m p_models.(i))
    done;
    !acc

  let delta_chunk t_models p_models lo hi =
    let fr = M.Frontier.create () in
    for i = lo to hi - 1 do
      let m = t_models.(i) in
      Array.iter (fun p -> M.Frontier.add fr (M.diff m p)) p_models
    done;
    Obs.observe h_frontier (M.Frontier.size fr);
    fr

  let sequential t_models p_models =
    Pool.jobs (Pool.global ()) = 1
    || Array.length t_models * Array.length p_models < parallel_threshold

  let delta t_models p_models =
    require "delta" (Array.length t_models);
    require "delta" (Array.length p_models);
    let nt = Array.length t_models and np = Array.length p_models in
    Obs.with_span "dist.delta" ~attrs:(size_attrs nt np) (fun () ->
        if sequential t_models p_models then
          M.Frontier.to_set (delta_chunk t_models p_models 0 nt)
        else
          M.min_incl
            (Array.concat
               (Array.to_list
                  (Array.map M.Frontier.to_array
                     (Pool.map_ranges (Pool.global ()) ~lo:0 ~hi:nt
                        (delta_chunk t_models p_models))))))

  let k_global t_models p_models =
    require "k_global" (Array.length t_models);
    require "k_global" (Array.length p_models);
    let nt = Array.length t_models and np = Array.length p_models in
    Obs.with_span "dist.k_global" ~attrs:(size_attrs nt np) (fun () ->
        let chunk lo hi =
          let acc = ref max_int in
          for i = lo to hi - 1 do
            acc := Int.min !acc (k_pointwise t_models.(i) p_models)
          done;
          !acc
        in
        if sequential t_models p_models then chunk 0 nt
        else
          Pool.parallel_for_reduce (Pool.global ()) ~lo:0 ~hi:nt ~map:chunk
            ~reduce:Int.min max_int)

  (* δ of nonempty sets is nonempty, so Ω folds from its first member. *)
  let omega t_models p_models =
    let d = delta t_models p_models in
    Array.fold_left M.union d.(0) d
end

module Packed = Make (Mask.Packed)
module Wide = Make (Mask.Wide)

(* Var.Set wrappers: pack over the union alphabet of the inputs (letters
   false everywhere cannot appear in a symmetric difference), measure,
   unpack. *)

let engine models =
  let alpha =
    Interp_packed.alphabet
      (Var.Set.elements (List.fold_left Var.Set.union Var.Set.empty models))
  in
  (alpha, Mask.by_width alpha (module Packed : S) (module Wide : S))

let mu m p_models =
  require "mu" (List.length p_models);
  let alpha, (module E) = engine (m :: p_models) in
  E.M.interps_of_set alpha
    (E.mu (E.M.pack alpha m) (E.M.set_of_interps alpha p_models))

let k_pointwise m p_models =
  require "k_pointwise" (List.length p_models);
  let alpha, (module E) = engine (m :: p_models) in
  E.k_pointwise (E.M.pack alpha m) (E.M.set_of_interps alpha p_models)

let delta t_models p_models =
  require "delta" (List.length t_models);
  require "delta" (List.length p_models);
  let alpha, (module E) = engine (t_models @ p_models) in
  E.M.interps_of_set alpha
    (E.delta
       (E.M.set_of_interps alpha t_models)
       (E.M.set_of_interps alpha p_models))

let k_global t_models p_models =
  require "k_global" (List.length t_models);
  require "k_global" (List.length p_models);
  let alpha, (module E) = engine (t_models @ p_models) in
  E.k_global
    (E.M.set_of_interps alpha t_models)
    (E.M.set_of_interps alpha p_models)

let omega t_models p_models =
  List.fold_left Var.Set.union Var.Set.empty (delta t_models p_models)
