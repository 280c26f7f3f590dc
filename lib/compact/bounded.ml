open Logic

let vp_of p =
  let vp = Var.Set.elements (Formula.vars p) in
  if List.length vp > 14 then
    invalid_arg "Compact.Bounded: |V(P)| > 14 — not a bounded instance";
  vp

(* The guard of the constructions that measure nothing; the other three
   take theirs from their {!Measure}. *)
let require_sat t p =
  if not (Semantics.is_sat t) then invalid_arg "Compact.Bounded: T unsat";
  if not (Semantics.is_sat p) then invalid_arg "Compact.Bounded: P unsat"

let flip f s = Formula.negate_vars s f

(* Formula (5).  The guard condition [C Δ S ⊊ S] is equivalent to
   [∅ ≠ C ⊆ S] (see the discussion below formula (5) in the paper). *)
let winslett t p =
  require_sat t p;
  let vp = vp_of p in
  let subsets = Interp.subsets vp in
  Formula.conj2 p
    (Formula.or_
       (List.map
          (fun s ->
            let guards =
              List.filter_map
                (fun c ->
                  if (not (Var.Set.is_empty c)) && Var.Set.subset c s then
                    Some (Formula.not_ (flip p c))
                  else None)
                subsets
            in
            Formula.and_ (flip t s :: guards))
          subsets))

(* Formula (6): cardinality guard [|C Δ S| < |S|]. *)
let forbus t p =
  require_sat t p;
  let vp = vp_of p in
  let subsets = Interp.subsets vp in
  Formula.conj2 p
    (Formula.or_
       (List.map
          (fun s ->
            let guards =
              List.filter_map
                (fun c ->
                  if
                    Var.Set.cardinal (Interp.sym_diff c s)
                    < Var.Set.cardinal s
                  then Some (Formula.not_ (flip p c))
                  else None)
                subsets
            in
            Formula.and_ (flip t s :: guards))
          subsets))

(* Corollary 4.4. *)
let borgida t p =
  require_sat t p;
  if Semantics.is_sat (Formula.conj2 t p) then Formula.conj2 t p
  else winslett t p

let satoh t p =
  ignore (vp_of p);
  let d = Measure.delta (Measure.create (Kb.make t) p) in
  Formula.conj2 p (Formula.or_ (List.map (flip t) d))

let dalal t p =
  let vp = vp_of p in
  let k = Measure.k (Measure.create (Kb.make t) p) in
  let subsets =
    List.filter (fun s -> Var.Set.cardinal s = k) (Interp.subsets vp)
  in
  Formula.conj2 p (Formula.or_ (List.map (flip t) subsets))

let weber t p =
  ignore (vp_of p);
  let omega = Measure.omega (Measure.create (Kb.make t) p) in
  let subsets = Interp.subsets (Var.Set.elements omega) in
  Formula.conj2 p (Formula.or_ (List.map (flip t) subsets))

let for_op (op : Revision.Model_based.op) =
  match op with
  | Revision.Model_based.Winslett -> winslett
  | Revision.Model_based.Borgida -> borgida
  | Revision.Model_based.Forbus -> forbus
  | Revision.Model_based.Satoh -> satoh
  | Revision.Model_based.Dalal -> dalal
  | Revision.Model_based.Weber -> weber
