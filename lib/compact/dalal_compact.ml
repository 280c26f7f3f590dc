open Logic

type info = {
  formula : Formula.t;
  k : int;
  x : Var.t list;
  y : Var.t list;
  aux : Var.t list;
}

let revise_info t p =
  (* k_{T,P} by the measure's ladder (one solver, assumption flips);
     EXA is then Tseitin'd exactly once, for the output formula rather
     than for the search. *)
  let k = Measure.k (Measure.create t p) in
  let x =
    Var.Set.elements (Var.Set.union (Formula.vars t) (Formula.vars p))
  in
  let y = Names.copy ~suffix:"'" x in
  let t_y = Formula.rename (List.combine x y) t in
  let exa_k, aux = Hamming.exa k x y in
  { formula = Formula.and_ [ t_y; p; exa_k ]; k; x; y; aux }

let revise t p = (revise_info t p).formula
