open Logic
module MB = Revision.Model_based
module Session = Semantics.Session
module Ladder = Semantics.Ladder
module Lit = Satsolver.Lit

(* One session for every question about the pair: [t /\ p[V(P)/Y]] is
   asserted once, each letter of V(P) gets one xor ("difference")
   literal against its copy, and letters outside V(P) belong to [t]
   alone (Proposition 2.1 puts every minimal difference inside V(P)).
   A candidate difference set is a polarity choice on the difference
   literals and a distance threshold is one ladder literal: pure
   assumptions, no re-encoding per query. *)
type t = {
  kb : Kb.t;
  p : Formula.t;
  session : Session.t;
  alphabet : Var.Set.t; (* V(T) ∪ V(P) *)
  vp : Var.t list;
  copies : Var.t list;
  diff_lits : Lit.t list;
  ladder : Ladder.t Lazy.t;
  compatible : bool Lazy.t;
  k : int Lazy.t;
  delta : Var.Set.t list Lazy.t;
  omega : Var.Set.t Lazy.t;
}

let k_of s lad =
  let rec probe j = if Session.within s [] lad j then j else probe (j + 1) in
  probe 0

(* The difference literals of [vp] spelling out exactly the set [sub]. *)
let pattern vp diff_lits sub =
  List.map2
    (fun x d -> if Var.Set.mem x sub then d else Lit.neg d)
    vp diff_lits

(* δ: the letters outside each maximal set of agreements ¬d_x that the
   session can satisfy, i.e. the inclusion-minimal realizable
   differences, in [Var.Set.compare] order. *)
let minimal_diffs s vp diff_lits =
  Session.maximal_subsets s (List.map Lit.neg diff_lits)
  |> List.map (fun agree ->
         Var.set_of_list (List.filteri (fun i _ -> not (List.mem i agree)) vp))
  |> List.sort Var.Set.compare

let unsat side = invalid_arg ("Measure: " ^ side ^ " is unsatisfiable")

let create kb p =
  if Kb.known kb = Some false then unsat "T";
  let vp_set = Formula.vars p in
  let vp = Var.Set.elements vp_set in
  let alphabet = Var.Set.union (Kb.vars kb) vp_set in
  let y = Names.copy ~avoid:alphabet ~suffix:"_m" vp in
  (* The session is a copy of the handle's, which holds [t] and its
     decision; [t] and [p[V(P)/Y]] share no letter, so one solve on the
     copy once [p] is asserted decides [p]. *)
  let s = Kb.session kb in
  if not (Kb.is_sat kb) then unsat "T";
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
  let delta = lazy (minimal_diffs s vp diff_lits) in
  {
    kb;
    p;
    session = s;
    alphabet;
    vp;
    copies = y;
    diff_lits;
    ladder;
    compatible =
      lazy (Session.solve s ~extra:(List.map Lit.neg diff_lits) []);
    k = lazy (k_of s (Lazy.force ladder));
    delta;
    omega = lazy (List.fold_left Var.Set.union Var.Set.empty (Lazy.force delta));
  }

let kb m = m.kb
let p m = m.p
let session m = m.session
let copies m = m.copies
let diff_lits m = m.diff_lits
let ladder m = Lazy.force m.ladder
let compatible m = Lazy.force m.compatible
let k m = Lazy.force m.k
let delta m = Lazy.force m.delta
let omega m = Lazy.force m.omega

(* T * P is the session, V(P) read on the copies, under assumptions on
   the difference literals: Dalal's ladder "at most k", Weber's every
   difference outside Ω off, Satoh's one pattern per member of δ. *)
let consistent m (op : MB.op) extra fs =
  let s = m.session in
  let under a = Session.solve s ~extra:(extra @ a) fs in
  match op with
  | MB.Dalal -> Session.within s ~assume:extra fs (ladder m) (k m)
  | MB.Weber ->
      let off x d = if Var.Set.mem x (omega m) then [] else [ Lit.neg d ] in
      under (List.concat (List.map2 off m.vp m.diff_lits))
  | MB.Satoh ->
      List.exists (fun sub -> under (pattern m.vp m.diff_lits sub)) (delta m)
  | MB.Winslett | MB.Forbus | MB.Borgida ->
      invalid_arg ("Measure: " ^ MB.name op ^ " is not a measured revision")

let on_copies m q =
  let q = Names.free ~alphabet:m.alphabet (Var.set_of_list m.copies) q in
  Formula.rename (List.combine m.vp m.copies) q
