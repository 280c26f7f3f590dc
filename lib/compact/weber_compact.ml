open Logic

type info = { formula : Formula.t; omega : Var.Set.t; z : Var.t list }

let revise_info t p =
  let omega = Measure.omega (Measure.create t p) in
  let letters = Var.Set.elements omega in
  let avoid = Var.Set.union (Formula.vars t) (Formula.vars p) in
  let z = Names.copy ~avoid ~suffix:"_z" letters in
  let t_z = Formula.rename (List.combine letters z) t in
  { formula = Formula.conj2 t_z p; omega; z }

let revise t p = (revise_info t p).formula
