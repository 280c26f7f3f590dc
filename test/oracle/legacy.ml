(* The list-of-[Var.Set.t] engines: model enumeration by a filtered
   [Interp.subsets] sweep (capped at 25 letters), and the Section 2.2.2
   distances and operators read literally off their definitions.  Slow
   on purpose and independent of the mask engines, so differential
   tests can hold those against them. *)

open Logic

(* [|M Δ N|]. *)
let hamming m n = Var.Set.cardinal (Interp.sym_diff m n)

(* The paper's [minc S]: the subset-minimal sets, duplicates collapsed,
   in [Var.Set.compare] order. *)
let min_incl sets =
  let sets = List.sort_uniq Var.Set.compare sets in
  List.filter
    (fun s ->
      not
        (List.exists
           (fun s' -> (not (Var.Set.equal s s')) && Var.Set.subset s' s)
           sets))
    sets

module Models = struct
  let enumerate alphabet f =
    let missing = Var.Set.diff (Formula.vars f) (Var.set_of_list alphabet) in
    if not (Var.Set.is_empty missing) then
      invalid_arg
        (Format.asprintf "Models.enumerate: letters %a not in alphabet"
           Var.pp_set missing);
    List.filter (fun m -> Interp.sat m f) (Interp.subsets alphabet)

  let equivalent_on alphabet a b =
    List.for_all
      (fun m -> Interp.sat m a = Interp.sat m b)
      (Interp.subsets alphabet)

  let entails_on alphabet a b =
    List.for_all
      (fun m -> (not (Interp.sat m a)) || Interp.sat m b)
      (Interp.subsets alphabet)
end

(* Same nonempty contract as Revision.Distance. *)
module Distance = struct
  let require name models =
    if models = [] then invalid_arg ("Distance." ^ name ^ ": empty model set")

  let mu m p_models =
    require "mu" p_models;
    min_incl (List.map (fun n -> Interp.sym_diff m n) p_models)

  let k_pointwise m p_models =
    require "k_pointwise" p_models;
    List.fold_left (fun acc n -> min acc (hamming m n)) max_int p_models

  let delta t_models p_models =
    require "delta" t_models;
    require "delta" p_models;
    min_incl (List.concat_map (fun m -> mu m p_models) t_models)

  let k_global t_models p_models =
    require "k_global" t_models;
    require "k_global" p_models;
    List.fold_left
      (fun acc m -> min acc (k_pointwise m p_models))
      max_int t_models

  let omega t_models p_models =
    List.fold_left Var.Set.union Var.Set.empty (delta t_models p_models)
end

module Model_based = struct
  open Revision.Model_based

  let winslett t_models p_models =
    List.filter
      (fun n ->
        List.exists
          (fun m ->
            let d = Interp.sym_diff m n in
            List.exists (Var.Set.equal d) (Distance.mu m p_models))
          t_models)
      p_models

  let borgida t_models p_models =
    let inter =
      List.filter (fun n -> List.exists (Interp.equal n) t_models) p_models
    in
    if inter <> [] then inter else winslett t_models p_models

  let forbus t_models p_models =
    List.filter
      (fun n ->
        List.exists
          (fun m -> hamming m n = Distance.k_pointwise m p_models)
          t_models)
      p_models

  let satoh t_models p_models =
    let d = Distance.delta t_models p_models in
    List.filter
      (fun n ->
        List.exists
          (fun m -> List.exists (Var.Set.equal (Interp.sym_diff n m)) d)
          t_models)
      p_models

  let dalal t_models p_models =
    let k = Distance.k_global t_models p_models in
    List.filter
      (fun n -> List.exists (fun m -> hamming n m = k) t_models)
      p_models

  let weber t_models p_models =
    let omega = Distance.omega t_models p_models in
    List.filter
      (fun n ->
        List.exists
          (fun m -> Var.Set.subset (Interp.sym_diff n m) omega)
          t_models)
      p_models

  let select op t_models p_models =
    match (p_models, t_models) with
    | [], _ -> []
    | _, [] -> p_models
    | _ -> (
        match op with
        | Winslett -> winslett t_models p_models
        | Borgida -> borgida t_models p_models
        | Forbus -> forbus t_models p_models
        | Satoh -> satoh t_models p_models
        | Dalal -> dalal t_models p_models
        | Weber -> weber t_models p_models)

  let revise_on op alphabet t p =
    let t_models = Models.enumerate alphabet t in
    let p_models = Models.enumerate alphabet p in
    Revision.Result.make alphabet (select op t_models p_models)
end
