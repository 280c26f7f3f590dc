open Logic
module MB = Revision.Model_based

type step = { formula : Formula.t; measure : int; size : int }

let step formula measure = { formula; measure; size = Formula.size formula }

(* [x] is the joint alphabet of T and every formula of the sequence.  A
   fresh copy avoids it and the letters of the accumulated formula's
   handle, so neither a later P nor a later renaming can capture a
   letter an earlier step made. *)
let alphabet kb ps =
  List.fold_left
    (fun acc p -> Var.Set.union acc (Formula.vars p))
    (Kb.vars kb) ps

let fresh x kb suffix letters =
  Names.copy ~avoid:(Var.Set.union x (Kb.vars kb)) ~suffix letters

let bounded_letters p =
  let vp = Var.Set.elements (Formula.vars p) in
  if List.length vp > 8 then
    invalid_arg "Construct: |V(P)| > 8 — not a bounded instance";
  vp

(* The guard of a step that measures nothing: one plain check of [p]. *)
let check_bounded p =
  let vp = bounded_letters p in
  if not (Semantics.is_sat p) then
    invalid_arg "Construct: revising formula unsatisfiable";
  vp

(* F_P(Z) = P[V(P)/Z] *)
let f_p p vp z = Formula.rename (List.combine vp z) p

(* The renamed side [φ[V(P)/Y] ∧ P] of the pointwise steps, with a
   second copy [Z] of V(P) when the step quantifies one. *)
let pointwise x kb p (sy, sz) =
  let vp = Var.Set.elements (Formula.vars p) in
  let y = fresh x kb sy vp in
  let z = fresh (Var.Set.union x (Var.set_of_list y)) kb sz vp in
  let renamed = Formula.rename (List.combine vp y) (Kb.formula kb) in
  (vp, y, z, Formula.conj2 renamed p)

(* Formula (12), with T generalized to any accumulated formula. *)
let winslett_view x kb p =
  let vp, y, z, renamed = pointwise x kb p ("_wy", "_wz") in
  Qbf.conj
    [
      Qbf.prop renamed;
      Qbf.forall z
        (Qbf.prop
           (Formula.imp
              (Formula.conj2 (f_p p vp z)
                 (Hamming.pointwise_diff_subset z y y vp))
              (Hamming.pointwise_diff_subset vp y y z)));
    ]

(* Formula (14) with the polynomial totalizer comparison.  [closer]
   carries its counter definitions; since it appears negated, the
   definition letters are universally quantified along with Z — for the
   functionally-correct counter values the implication forces ~lt, for
   any other values the definitions fail and the implication is
   vacuous. *)
let forbus_qbf t p =
  let kb = Kb.make t in
  let vp, y, z, renamed = pointwise (alphabet kb [ p ]) kb p ("_fy", "_fz") in
  let closer, aux = Hamming.dist_lt (z, y) (vp, y) in
  Qbf.conj
    [
      Qbf.prop renamed;
      Qbf.forall (z @ aux)
        (Qbf.prop (Formula.imp (f_p p vp z) (Formula.not_ closer)));
    ]

let winslett_qbf t p =
  let kb = Kb.make t in
  winslett_view (alphabet kb [ p ]) kb p

let winslett x kb p =
  ignore (check_bounded p);
  step (Qbf.expand (winslett_view x kb p)) 0

(* Formula (14), its comparison written out directly. *)
let forbus x kb p =
  ignore (check_bounded p);
  let vp, y, z, renamed = pointwise x kb p ("_fy", "_fz") in
  let closer = Hamming.dist_lt_direct (z, y) (vp, y) in
  let minimality =
    Qbf.forall z (Qbf.prop (Formula.imp (f_p p vp z) (Formula.not_ closer)))
  in
  step (Formula.conj2 renamed (Qbf.expand minimality)) 0

let borgida x kb p =
  ignore (check_bounded p);
  let phi = Kb.formula kb in
  if Semantics.is_sat (Formula.conj2 phi p) then step (Formula.conj2 phi p) 0
  else winslett x kb p

(* Satoh's step: ERRATUM E1 (DESIGN.md §8).  The paper's formula (13)
   quantifies the alternative T-model only over a copy of V(P), sharing
   the candidate's letters outside V(P), and so misses globally closer
   pairs (T = (x1 != x2) -> x1, P = ~x1: it admits the non-Satoh model
   {x2}).  Instead δ(φ, P) comes from the measure ([2^{|V(P)|}] SAT
   probes, polynomial in |φ| for bounded P) and pins the candidate's
   difference inside it. *)
let satoh x kb p =
  let vp = bounded_letters p in
  let delta = Measure.delta (Measure.create kb p) in
  let phi = Kb.formula kb in
  let y = fresh x kb "_sy" vp in
  let diff_is s =
    Formula.and_
      (List.map2
         (fun xj yj ->
           if Var.Set.mem xj s then
             Formula.xor (Formula.var xj) (Formula.var yj)
           else Formula.iff (Formula.var xj) (Formula.var yj))
         vp y)
  in
  step
    (Formula.and_
       [
         Formula.rename (List.combine vp y) phi;
         p;
         Formula.or_ (List.map diff_is delta);
       ])
    (List.length delta)

(* Theorem 3.4's step, over the joint alphabet; EXA is built once, at
   the measured k. *)
let dalal x kb p =
  let k = Measure.k (Measure.create kb p) in
  let phi = Kb.formula kb in
  let xs = Var.Set.elements x in
  let ys = fresh x kb "'" xs in
  let exa_k, _aux = Hamming.exa k xs ys in
  step (Formula.and_ [ Formula.rename (List.combine xs ys) phi; p; exa_k ]) k

(* Theorem 3.5's step. *)
let weber x kb p =
  let omega = Measure.omega (Measure.create kb p) in
  let phi = Kb.formula kb in
  let letters = Var.Set.elements omega in
  let z = fresh x kb "_z" letters in
  step
    (Formula.conj2 (Formula.rename (List.combine letters z) phi) p)
    (Var.Set.cardinal omega)

let iterate (op : MB.op) kb ps =
  if ps = [] then []
  else begin
    (* The measuring steps take each accumulated formula's decision
       from their measure; the others consult T's handle up front.  A
       later step's formula gets a handle of its own, built on demand. *)
    let measures, step_of =
      match op with
      | MB.Dalal -> (true, dalal)
      | MB.Weber -> (true, weber)
      | MB.Satoh -> (true, satoh)
      | MB.Winslett -> (false, winslett)
      | MB.Borgida -> (false, borgida)
      | MB.Forbus -> (false, forbus)
    in
    if (not measures) && not (Kb.is_sat kb) then
      invalid_arg "Construct: T unsatisfiable";
    let x = alphabet kb ps in
    let steps, _ =
      List.fold_left
        (fun (acc, phi) p ->
          let s = step_of x (Lazy.force phi) p in
          (s :: acc, lazy (Kb.make s.formula)))
        ([], Lazy.from_val kb) ps
    in
    List.rev steps
  end

let final t steps =
  match List.rev steps with [] -> t | last :: _ -> last.formula

let revise op kb p = final (Kb.formula kb) (iterate op kb [ p ])
