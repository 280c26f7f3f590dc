open Logic

type op = Winslett | Borgida | Forbus | Satoh | Dalal | Weber

let all = [ Winslett; Borgida; Forbus; Satoh; Dalal; Weber ]

let name = function
  | Winslett -> "winslett"
  | Borgida -> "borgida"
  | Forbus -> "forbus"
  | Satoh -> "satoh"
  | Dalal -> "dalal"
  | Weber -> "weber"

let of_name s =
  match String.lowercase_ascii s with
  | "winslett" -> Some Winslett
  | "borgida" -> Some Borgida
  | "forbus" -> Some Forbus
  | "satoh" -> Some Satoh
  | "dalal" -> Some Dalal
  | "weber" -> Some Weber
  | _ -> None

(* The six operators, once over either mask representation.  The
   pointwise operators compute each model M's measure (µ(M, P),
   k_{M,P}) once, outside the per-N loop. *)
module Make (M : Mask.S) = struct
  module M = M
  module D = Distance.Make (M)

  let winslett t_models p_models =
    let mus = Array.map (fun m -> D.mu m p_models) t_models in
    M.filter
      (fun n ->
        let rec probe i =
          i < Array.length t_models
          && (M.mem mus.(i) (M.diff t_models.(i) n) || probe (i + 1))
        in
        probe 0)
      p_models

  let borgida t_models p_models =
    let inter = M.inter p_models t_models in
    if Array.length inter > 0 then inter else winslett t_models p_models

  let forbus t_models p_models =
    let ks = Array.map (fun m -> D.k_pointwise m p_models) t_models in
    M.filter
      (fun n ->
        let rec probe i =
          i < Array.length t_models
          && (M.hamming t_models.(i) n = ks.(i) || probe (i + 1))
        in
        probe 0)
      p_models

  let satoh t_models p_models =
    let d = D.delta t_models p_models in
    M.filter
      (fun n -> M.exists (fun m -> M.mem d (M.diff n m)) t_models)
      p_models

  let dalal t_models p_models =
    let k = D.k_global t_models p_models in
    M.filter (fun n -> M.exists (fun m -> M.hamming n m = k) t_models) p_models

  let weber t_models p_models =
    let omega = D.omega t_models p_models in
    M.filter
      (fun n -> M.exists (fun m -> M.subset (M.diff n m) omega) t_models)
      p_models

  let select op t_models p_models =
    if Array.length p_models = 0 then [||]
    else if Array.length t_models = 0 then p_models
    else
      match op with
      | Winslett -> winslett t_models p_models
      | Borgida -> borgida t_models p_models
      | Forbus -> forbus t_models p_models
      | Satoh -> satoh t_models p_models
      | Dalal -> dalal t_models p_models
      | Weber -> weber t_models p_models
end

module Packed = Make (Mask.Packed)
module Wide_engine = Make (Mask.Wide)

module Wide = struct
  (* The alphabet argument predates the shared engine (Weber's Ω once
     needed a word count); it is kept so callers stay source-compatible. *)
  let select op (_ : Interp_packed.alphabet) = Wide_engine.select op
end

module type ENGINE = sig
  module M : Mask.S

  val select : op -> M.set -> M.set -> M.set
end

let engine alpha =
  Mask.by_width alpha (module Packed : ENGINE) (module Wide_engine : ENGINE)

let select op t_models p_models =
  match (p_models, t_models) with
  | [], _ -> []
  | _, [] -> p_models
  | _ ->
      (* Letters false in every model cannot enter a symmetric difference,
         so packing over the models' own letters is lossless. *)
      let alpha =
        Interp_packed.alphabet
          (Var.Set.elements
             (List.fold_left Var.Set.union Var.Set.empty
                (t_models @ p_models)))
      in
      let (module E) = engine alpha in
      E.M.interps_of_set alpha
        (E.select op
           (E.M.set_of_interps alpha t_models)
           (E.M.set_of_interps alpha p_models))

let revise_on op alphabet t p =
  let alpha = Interp_packed.alphabet alphabet in
  let (module E) = engine alpha in
  let models f = Models.enumerate_masks (module E.M) alpha f in
  Result.make alphabet
    (E.M.interps_of_set alpha (E.select op (models t) (models p)))

let revise op t p =
  let alphabet = Models.alphabet_of [ t; p ] in
  revise_on op alphabet t p
