module Obs = Revkb_obs.Obs

let c_decisions = Obs.counter "sem.kb.decisions"

type t = { formula : Formula.t; vars : Var.Set.t; mutable sat : bool option }

let make formula = { formula; vars = Formula.vars formula; sat = None }

let of_theory th =
  { formula = Theory.conj th; vars = Theory.vars th; sat = None }

let formula kb = kb.formula
let vars kb = kb.vars
let known kb = kb.sat

let decide kb ~by =
  match kb.sat with
  | Some b -> b
  | None ->
      Obs.incr c_decisions;
      let b = by () in
      kb.sat <- Some b;
      b

let is_sat kb = decide kb ~by:(fun () -> Semantics.is_sat kb.formula)
