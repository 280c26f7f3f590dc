module Obs = Revkb_obs.Obs
module Session = Semantics.Session

let c_decisions = Obs.counter "sem.kb.decisions"

type t = {
  formula : Formula.t;
  vars : Var.Set.t;
  mutable sat : bool option;
  mutable loaded : Session.t option; (* T asserted; copied, never queried *)
}

let make formula =
  { formula; vars = Formula.vars formula; sat = None; loaded = None }

let of_theory th =
  { formula = Theory.conj th; vars = Theory.vars th; sat = None; loaded = None }

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

(* T is encoded once per handle, here.  The loaded session is solved
   once, on T alone, which takes the decision when none is held yet
   and leaves T's phases and learnt clauses to every copy.  It is
   otherwise only copied: a query on it would leave that query's
   encodings and learnt clauses in every later copy. *)
let loaded kb =
  match kb.loaded with
  | Some s -> s
  | None ->
      let s = Session.create ~vars:(Var.Set.elements kb.vars) () in
      Session.assert_always s kb.formula;
      let sat = Session.solve s [] in
      ignore (decide kb ~by:(fun () -> sat) : bool);
      kb.loaded <- Some s;
      s

let session kb = Session.copy (loaded kb)
