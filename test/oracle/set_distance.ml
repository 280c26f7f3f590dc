(* The mask distance engines (Revision.Distance.Packed/Wide) over
   [Var.Set.t] interpretations: pack over the union alphabet of the
   inputs (letters false everywhere cannot appear in a symmetric
   difference), measure with the engine Mask.by_width picks, unpack.
   Tests compare this route against Legacy.Distance's list definitions
   and Compact.Measure's SAT route.  The engines carry the nonempty
   contract: each raises [Invalid_argument "Distance.<name>: ..."]. *)

open Logic
open Revision

let engine models =
  let alpha =
    Interp_packed.alphabet
      (Var.Set.elements (List.fold_left Var.Set.union Var.Set.empty models))
  in
  (alpha, Mask.by_width alpha (module Distance.Packed : Distance.S)
            (module Distance.Wide : Distance.S))

let mu m p_models =
  let alpha, (module E) = engine (m :: p_models) in
  E.M.interps_of_set alpha
    (E.mu (E.M.pack alpha m) (E.M.set_of_interps alpha p_models))

let k_pointwise m p_models =
  let alpha, (module E) = engine (m :: p_models) in
  E.k_pointwise (E.M.pack alpha m) (E.M.set_of_interps alpha p_models)

let delta t_models p_models =
  let alpha, (module E) = engine (t_models @ p_models) in
  E.M.interps_of_set alpha
    (E.delta
       (E.M.set_of_interps alpha t_models)
       (E.M.set_of_interps alpha p_models))

let k_global t_models p_models =
  let alpha, (module E) = engine (t_models @ p_models) in
  E.k_global
    (E.M.set_of_interps alpha t_models)
    (E.M.set_of_interps alpha p_models)

let omega t_models p_models =
  List.fold_left Var.Set.union Var.Set.empty (delta t_models p_models)
