open Logic

let bounded_letters p =
  let vp = Var.Set.elements (Formula.vars p) in
  if List.length vp > 8 then
    invalid_arg "Iterated_bounded: |V(P)| > 8 — not a bounded instance";
  vp

(* The guard of a step that measures nothing: one plain check of [p]. *)
let check_bounded p =
  let vp = bounded_letters p in
  if not (Semantics.is_sat p) then
    invalid_arg "Iterated_bounded: revising formula unsatisfiable";
  vp

(* F_P(Z) = P[V(P)/Z] *)
let f_p p vp z = Formula.rename (List.combine vp z) p

(* One fresh copy of V(P), avoiding the letters of the accumulated
   formula so iterated renaming can never capture. *)
let copy avoid suffix letters = Names.copy ~avoid ~suffix letters

(* Formula (12)'s QBF, with no width limit: the matrix is polynomial. *)
let winslett_qbf t p =
  let vp = Var.Set.elements (Formula.vars p) in
  let avoid = Var.Set.union (Formula.vars t) (Formula.vars p) in
  let y = copy avoid "_wy" vp in
  let z = copy (Var.Set.union avoid (Var.set_of_list y)) "_wz" vp in
  let t_y = Formula.rename (List.combine vp y) t in
  Qbf.conj
    [
      Qbf.prop (Formula.conj2 t_y p);
      Qbf.forall z
        (Qbf.prop
           (Formula.imp
              (Formula.conj2 (f_p p vp z)
                 (Hamming.pointwise_diff_subset z y y vp))
              (Hamming.pointwise_diff_subset vp y y z)));
    ]

(* Formula (14)'s QBF with the polynomial totalizer comparison. *)
let forbus_qbf t p =
  let vp = Var.Set.elements (Formula.vars p) in
  let avoid = Var.Set.union (Formula.vars t) (Formula.vars p) in
  let y = copy avoid "_fy" vp in
  let z = copy (Var.Set.union avoid (Var.set_of_list y)) "_fz" vp in
  let t_y = Formula.rename (List.combine vp y) t in
  (* [closer] carries its counter definitions; since it appears negated,
     the definition letters are universally quantified along with Z —
     for the functionally-correct counter values the implication forces
     ~lt, for any other values the definitions fail and the implication
     is vacuous. *)
  let closer, aux = Hamming.dist_lt (z, y) (vp, y) in
  Qbf.conj
    [
      Qbf.prop (Formula.conj2 t_y p);
      Qbf.forall (z @ aux)
        (Qbf.prop (Formula.imp (f_p p vp z) (Formula.not_ closer)));
    ]

(* Formula (12) with T generalized to any accumulated formula. *)
let winslett_step t p =
  let vp = check_bounded p in
  let avoid = Var.Set.union (Formula.vars t) (Formula.vars p) in
  let y = copy avoid "_wy" vp in
  let z = copy (Var.Set.union avoid (Var.set_of_list y)) "_wz" vp in
  let t_y = Formula.rename (List.combine vp y) t in
  let minimality =
    Qbf.forall z
      (Qbf.prop
         (Formula.imp
            (Formula.conj2 (f_p p vp z)
               (Hamming.pointwise_diff_subset z y y vp))
            (Hamming.pointwise_diff_subset vp y y z)))
  in
  Formula.and_ [ t_y; p; Qbf.expand minimality ]

(* Satoh's step.

   ERRATUM: the paper's formula (13) quantifies the alternative T-model
   only over a copy [W] of [V(P)], sharing the candidate model's letters
   outside [V(P)].  That misses globally closer pairs whose T-model
   differs from the candidate outside [V(P)] (e.g. T = (x1 != x2) -> x1,
   P = ~x1: formula (13) admits the non-Satoh model {x2}).  We instead
   compute [δ(T, P)] offline with [2^{|V(P)|}] SAT probes
   ({!Measure.delta} — polynomial in [|T|] for bounded [P], i.e. the same
   "measure first, compact guard second" scheme as Theorems 3.4/5.1; the
   measure also decides that [t] and [p] are satisfiable) and pin the
   candidate's difference to lie in [δ]:

   [T[V(P)/Y] ∧ P ∧ ∨_{S ∈ δ(T,P)} (Δ(V(P), Y) = S)].

   This is query-equivalent to [T *_S P] and its size grows additively
   under iteration, preserving Theorem 6.2's statement. *)
let satoh_step t p =
  let vp = bounded_letters p in
  let delta = Measure.delta (Measure.create t p) in
  let avoid = Var.Set.union (Formula.vars t) (Formula.vars p) in
  let y = copy avoid "_sy" vp in
  let t_y = Formula.rename (List.combine vp y) t in
  let diff_is s =
    Formula.and_
      (List.map2
         (fun xj yj ->
           if Var.Set.mem xj s then
             Formula.xor (Formula.var xj) (Formula.var yj)
           else Formula.iff (Formula.var xj) (Formula.var yj))
         vp y)
  in
  Formula.and_ [ t_y; p; Formula.or_ (List.map diff_is delta) ]

(* Formula (14). *)
let forbus_step t p =
  let vp = check_bounded p in
  let avoid = Var.Set.union (Formula.vars t) (Formula.vars p) in
  let y = copy avoid "_fy" vp in
  let z = copy (Var.Set.union avoid (Var.set_of_list y)) "_fz" vp in
  let t_y = Formula.rename (List.combine vp y) t in
  let closer_exists = Hamming.dist_lt_direct (z, y) (vp, y) in
  let minimality =
    Qbf.forall z
      (Qbf.prop (Formula.imp (f_p p vp z) (Formula.not_ closer_exists)))
  in
  Formula.and_ [ t_y; p; Qbf.expand minimality ]

let borgida_step t p =
  ignore (check_bounded p);
  if Semantics.is_sat (Formula.conj2 t p) then Formula.conj2 t p
  else winslett_step t p

(* The pointwise steps measure nothing, so T gets one plain check up
   front; Satoh's step measures, and its measure decides T itself. *)
let check_t t =
  if not (Semantics.is_sat t) then
    invalid_arg "Iterated_bounded: T unsatisfiable"

let iter step t ps =
  check_t t;
  List.fold_left step t ps

let winslett t p = iter winslett_step t [ p ]
let satoh t p = satoh_step t p
let winslett_iter t ps = iter winslett_step t ps
let satoh_iter t ps = List.fold_left satoh_step t ps
let forbus_iter t ps = iter forbus_step t ps
let borgida_iter t ps = iter borgida_step t ps

let for_op (op : Revision.Model_based.op) t ps =
  if ps = [] then t
  else
  match op with
  | Revision.Model_based.Winslett -> winslett_iter t ps
  | Revision.Model_based.Borgida -> borgida_iter t ps
  | Revision.Model_based.Forbus -> forbus_iter t ps
  | Revision.Model_based.Satoh -> satoh_iter t ps
  | Revision.Model_based.Dalal -> Iterated.final (Iterated.dalal t ps)
  | Revision.Model_based.Weber -> Iterated.final (Iterated.weber t ps)

let revise (op : Revision.Model_based.op) t p =
  match op with
  | Revision.Model_based.Dalal -> Dalal_compact.revise t p
  | Revision.Model_based.Weber -> Weber_compact.revise t p
  | Revision.Model_based.Winslett | Revision.Model_based.Borgida
  | Revision.Model_based.Forbus | Revision.Model_based.Satoh ->
      for_op op t [ p ]
