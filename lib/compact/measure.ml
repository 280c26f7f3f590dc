open Logic
module Session = Semantics.Session
module Ladder = Semantics.Ladder

(* One session for every question about the pair: [t /\ p[V(P)/Y]] is
   asserted once, each letter of V(P) gets one xor ("difference")
   literal against its copy, and letters outside V(P) belong to [t]
   alone (Proposition 2.1 puts every minimal difference inside V(P)).
   A candidate difference set is a polarity choice on the difference
   literals and a distance threshold is one ladder literal: pure
   assumptions, no re-encoding per query. *)
type t = {
  session : Session.t;
  copies : Var.t list;
  diff_lits : Satsolver.Lit.t list;
  ladder : Ladder.t Lazy.t;
  k : int Lazy.t;
  diffs : Var.Set.t list Lazy.t;
  delta : Var.Set.t list Lazy.t;
  omega : Var.Set.t Lazy.t;
}

let k_of s lad =
  let rec probe j = if Session.within s [] lad j then j else probe (j + 1) in
  probe 0

let sweep s movable =
  if List.length movable > 16 then invalid_arg "Measure.diffs: |V(P)| > 16";
  let diffs =
    List.filter
      (fun sub ->
        Session.solve s []
          ~extra:
            (List.map
               (fun (x, d) ->
                 if Var.Set.mem x sub then d else Satsolver.Lit.neg d)
               movable))
      (Interp.subsets (List.map fst movable))
  in
  (* The session's first query found a model pair, and its difference
     is one of the subsets: an empty sweep is a solver fault, never
     an answer. *)
  assert (diffs <> []);
  diffs

let unsat side = invalid_arg ("Measure: " ^ side ^ " is unsatisfiable")

let create kb p =
  if Kb.known kb = Some false then unsat "T";
  let vp_set = Formula.vars p in
  let vp = Var.Set.elements vp_set in
  let y =
    Names.copy ~avoid:(Var.Set.union (Kb.vars kb) vp_set) ~suffix:"_m" vp
  in
  (* [t] and [p[V(P)/Y]] share no letter, so each is decided by a solve
     on what is asserted so far: [t]'s only when its handle holds no
     decision yet, then [p]'s. *)
  let s = Session.create ~vars:vp () in
  Session.assert_always s (Kb.formula kb);
  if not (Kb.decide kb ~by:(fun () -> Session.solve s [])) then unsat "T";
  Session.assert_always s (Formula.rename (List.combine vp y) p);
  if not (Session.solve s []) then unsat "P";
  let env = Session.env s in
  let diff_lits =
    List.map2
      (fun xv yv ->
        Ladder.diff_lit env
          (Semantics.lit_of_var env xv, Semantics.lit_of_var env yv))
      vp y
  in
  let ladder = lazy (Ladder.of_lits env diff_lits) in
  let diffs = lazy (sweep s (List.combine vp diff_lits)) in
  let delta = lazy (Interp.min_incl (Lazy.force diffs)) in
  {
    session = s;
    copies = y;
    diff_lits;
    ladder;
    k = lazy (k_of s (Lazy.force ladder));
    diffs;
    delta;
    omega = lazy (List.fold_left Var.Set.union Var.Set.empty (Lazy.force delta));
  }

let session m = m.session
let copies m = m.copies
let diff_lits m = m.diff_lits
let ladder m = Lazy.force m.ladder
let k m = Lazy.force m.k
let diffs m = Lazy.force m.diffs
let delta m = Lazy.force m.delta
let omega m = Lazy.force m.omega
