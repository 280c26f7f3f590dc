open Logic

(* Model-set comparisons run packed: both sides become sorted mask arrays
   over the result's alphabet — one-word or multi-word by width — and
   compare with structural equality.  The list pipeline is not involved
   at any width. *)

let logically_equivalent result f =
  Revkb_obs.Obs.with_span "verify.logical" (fun () ->
      let alphabet = Revision.Result.alphabet result in
      if not (Var.Set.subset (Formula.vars f) (Var.set_of_list alphabet))
      then false
      else
        let alpha = Interp_packed.alphabet alphabet in
        let (module M) = Mask.engine alpha in
        M.equal_set
          (Models.enumerate_masks (module M) alpha f)
          (M.set_of_interps alpha (Revision.Result.models result)))

(* The candidate's projected models come out of one incremental session
   (scoped blocking clauses, encode-once); the reference side is already
   an explicit model list. *)
let query_equivalent result f =
  Revkb_obs.Obs.with_span "verify.query" (fun () ->
      let alphabet = Revision.Result.alphabet result in
      let alpha = Interp_packed.alphabet alphabet in
      let (module M) = Mask.engine alpha in
      let s = Semantics.Session.create ~vars:alphabet () in
      M.equal_set
        (Semantics.Session.masks (module M) s alpha f)
        (M.set_of_interps alpha (Revision.Result.models result)))

(* The BDD oracle: compile the reference model set and the candidate
   into one manager and compare roots — canonicity turns equivalence
   into a pointer test.  Candidate letters outside the result's
   alphabet are existentially projected away, matching the projected
   model sets [query_equivalent] compares. *)
let bdd_equivalent result f =
  Revkb_obs.Obs.with_span "verify.bdd" (fun () ->
      let alphabet = Revision.Result.alphabet result in
      let mgr = Bdd.manager alphabet in
      let reference = Bdd.of_models mgr (Revision.Result.models result) in
      let extra = Var.Set.diff (Formula.vars f) (Var.set_of_list alphabet) in
      Bdd.extend mgr (Var.Set.elements extra);
      let candidate = Bdd.exists extra (Bdd.of_formula mgr f) in
      Bdd.equal reference candidate)

let report ppf result f =
  let m = Revkb_analysis.Metrics.of_formula f in
  let frag = Revkb_analysis.Fragments.classify f in
  Format.fprintf ppf
    "@[<v>%a@,\
     fragments: %a@,\
     logically equivalent: %b@,\
     query equivalent: %b@,\
     bdd equivalent: %b@]"
    Revkb_analysis.Metrics.pp m Revkb_analysis.Fragments.pp frag
    (logically_equivalent result f)
    (query_equivalent result f)
    (bdd_equivalent result f)
