open Logic
module MB = Revision.Model_based
module Obs = Revkb_obs.Obs
module Session = Semantics.Session

(* CEGAR refinement count: witnesses blocked before a probe resolved.
   One increment per solver round-trip, so the counter is a direct read
   on how hard the Σ₂ checks are working. *)
let c_cegar = Obs.counter "check.cegar_iters"

(* The assumption literal setting letter (or copy) [x] to [v]. *)
let pin env x v =
  let l = Semantics.lit_of_var env x in
  if v then l else Satsolver.Lit.neg l

exception
  Cegar_cap_exceeded of { cap : int; opname : string; nletters : int }

let () =
  Printexc.register_printer (function
    | Cegar_cap_exceeded { cap; opname; nletters } ->
        Some
          (Printf.sprintf
             "Compact.Check: CEGAR cap exceeded (cap=%d, op=%s, %d-letter \
              alphabet)"
             cap opname nletters)
    | _ -> None)

(* The letters a refinement blocks on.  Witness [M] was refuted by the
   P-model [N'] against the candidate [N]: A = (N' Δ N) \ (M Δ N'), the
   letters where N' leaves N and M already sides with N'.  Every witness
   M' that agrees with N' on A is refuted by the same N':

   - inclusion (Winslett, Borgida): A is all of N' Δ N, so
     M' Δ N' = (M' Δ N) \ A, a strict subset of M' Δ N;
   - cardinality (Forbus): with D = N' Δ N, M sides with N' on a strict
     majority of D, so |M' Δ N'| - |M' Δ N| <= |D \ A| - |A| < 0.

   M itself agrees with N' on A, and A is never empty, so the clause
   always excludes M.  Blocking agreement on all of D instead is sound
   for inclusion only: under cardinality it can miss M. *)
let refutation_core (type m) (module M : Mask.S with type t = m) ~witness
    ~candidate ~refuter =
  let d = M.diff refuter candidate and e = M.diff witness refuter in
  (* (d ∪ e) Δ e = d \ e *)
  M.diff (M.union d e) e

(* The one witness loop, for the pointwise operators: does T * P, V(P)
   read on the copies, have a model consistent with the assumption
   literals [extra] and the formulas [fs]?  A witness is a model pair
   of the session, [extra] and [fs]: M on T's letters and N on the
   copies, N = M outside V(P) (Proposition 2.1: a T-model that selects
   N agrees with N there, for flipping such a letter of N keeps P and
   moves N strictly closer).  It stands when no P-model refutes M
   against N, that is when M selects N and so N is a model of T * P.
   A refuter N' of M against N refutes every M' agreeing with N' on
   A = {!refutation_core}, so the round blocks the pairs with N's copy
   values and N''s values on A, in the question's own scope, retired
   when it ends however it ends, so an answer never depends on the
   questions asked before it.  A question runs at most 4^|V(P)|
   refinements, and 2^|V(P)| when [extra] pins the copies, as a
   candidate's check does.  The witness masks span V(P) and the copies,
   ordered as {!Interp_packed.alphabet} orders them (by interning), so
   each position of a letter or its copy is looked up; they take the
   representation {!Mask.engine} picks.  A witness that stands is
   answered by [read], before its refutation probe moves the model. *)
let witness_loop budget ~inclusion ~read m =
  let s = Measure.session m in
  let vp = Var.Set.elements (Formula.vars (Measure.p m)) in
  let ys = Measure.copies m in
  let alpha = Interp_packed.alphabet (vp @ ys) in
  let (module M) = Mask.engine alpha in
  let pos x = Option.get (Interp_packed.index_of alpha x) in
  let px = Array.of_list (List.map pos vp) in
  let py = Array.of_list (List.map pos ys) in
  let partner = Array.make (Interp_packed.size alpha) 0 in
  Array.iteri
    (fun i x ->
      partner.(x) <- py.(i);
      partner.(py.(i)) <- x)
    px;
  let copy = M.init alpha (fun j -> Array.mem j py) in
  let env = Session.env s in
  (* The refutation probe of a witness M against a P-model N: V(P)
     pinned to M and one ladder probe below |M Δ N| with, under
     inclusion, every difference outside M Δ N off.  With V(P) pinned
     the difference literals spell out M Δ N' for the P-model N' on the
     copies, so a satisfiable probe is a refutation: N', read off the
     copies as the mask of the V(P) letters they make true.  The letters
     outside V(P) stay free: N' takes M's values there, where P does not
     look, so whether a refuter exists turns on V(P) alone. *)
  let refutation wm nm =
    let d = M.diff wm nm in
    let inside =
      if not inclusion then []
      else
        List.concat
          (List.mapi
             (fun i dl ->
               if M.test d px.(i) then [] else [ Satsolver.Lit.neg dl ])
             (Measure.diff_lits m))
    in
    let at_m = List.mapi (fun i x -> pin env x (M.test wm px.(i))) vp in
    if
      Session.closer_than s ~assume:(at_m @ inside) [] (Measure.ladder m)
        (M.hamming wm nm)
    then
      let n' = Semantics.model_on env ys in
      let bit = Array.make (Interp_packed.size alpha) false in
      List.iteri (fun i y -> bit.(px.(i)) <- Var.Set.mem y n') ys;
      Some (M.init alpha (Array.get bit))
    else None
  in
  let refute w =
    let wm = M.init alpha (fun j -> (not (M.test copy j)) && M.test w j) in
    let nm =
      M.init alpha (fun j -> (not (M.test copy j)) && M.test w partner.(j))
    in
    Option.map
      (fun n' ->
        let a =
          refutation_core (module M) ~witness:wm ~candidate:nm ~refuter:n'
        in
        ( M.union a copy,
          M.init alpha (fun j ->
              if M.test copy j then M.test w j else M.test n' j) ))
      (refutation wm nm)
  in
  fun extra fs ->
    Session.with_retractable s (fun scope ->
        let rec loop i =
          budget i;
          if not (Session.solve s ~scopes:[ scope ] ~extra fs) then None
          else
            let n = read () in
            match refute (Session.mask_on (module M) s alpha) with
            | Some (on, value) ->
                Obs.incr c_cegar;
                Session.block_mask (module M) ~on s scope alpha value;
                loop (i + 1)
            | None -> Some n
        in
        loop 0)

(* Refinement [i] of a witness loop on [m]'s pair; past the cap it
   raises, naming the operator and the alphabet width. *)
let budget cegar_cap op m i =
  if i > cegar_cap then
    raise
      (Cegar_cap_exceeded
         { cap = cegar_cap; opname = MB.name op;
           nletters =
             Var.Set.cardinal
               (Var.Set.union (Kb.vars (Measure.kb m))
                  (Formula.vars (Measure.p m))) })

(* T's letters outside V(P): a model pair's two sides agree there. *)
let outside m =
  Var.Set.elements
    (Var.Set.diff (Kb.vars (Measure.kb m)) (Formula.vars (Measure.p m)))

(* The one question both public tests ask, dispatched once per
   operator: does T * P, V(P) read on the copies, have a model
   consistent with the assumption literals [extra] and the formulas
   [fs]?  If so, [read ()] as that model's solve returns.  Dalal, Weber
   and Satoh are the measure under assumptions; Borgida on a compatible
   pair is T ∧ P, the session with every difference literal off;
   Winslett, Forbus and Borgida otherwise ask the witness loop. *)
let consistent cegar_cap op m read =
  let answer sat = if sat then Some (read ()) else None in
  let loop = witness_loop (budget cegar_cap op m) ~read m in
  match op with
  | MB.Dalal | MB.Weber | MB.Satoh ->
      let consistent = Measure.consistent m op in
      fun extra fs -> answer (consistent extra fs)
  | MB.Borgida when Measure.compatible m ->
      let off = List.map Satsolver.Lit.neg (Measure.diff_lits m) in
      fun extra fs ->
        answer (Session.solve (Measure.session m) ~extra:(off @ extra) fs)
  | MB.Winslett | MB.Borgida -> loop ~inclusion:true
  | MB.Forbus -> loop ~inclusion:false

(* A candidate N |= P is a model of T * P when T * P is consistent
   with N pinned: on the copies for V(P), and on T's own letters
   outside V(P), where the T side cannot move (Proposition 2.1). *)
let checker ?(cegar_cap = 50_000) op m =
  let consistent = consistent cegar_cap op m ignore in
  let p = Measure.p m in
  let outside = outside m in
  let letters = Var.Set.elements (Formula.vars p) @ outside in
  let on = Measure.copies m @ outside in
  let env = Session.env (Measure.session m) in
  fun n ->
    Interp.sat n p
    && Option.is_some
         (consistent
            (List.map2 (fun x y -> pin env y (Var.Set.mem x n)) letters on)
            [])

(* T * P |= q when T * P is inconsistent with ¬q on the copies; a model
   of ¬q, read there and on T's other letters, answers later queries. *)
let entails ?(cegar_cap = 50_000) op m =
  let on = lazy (outside m @ Measure.copies m) in
  let env = Session.env (Measure.session m) in
  let read () = Semantics.model_on env (Lazy.force on) in
  let consistent = consistent cegar_cap op m read in
  let record = Witnesses.create () in
  fun q ->
    let q = Measure.on_copies m q in
    Witnesses.entails record q (fun () -> consistent [] [ Formula.not_ q ])

let model_check ?cegar_cap op t p n =
  Obs.with_span "check.batch"
    ~attrs:(fun () -> [ ("op", MB.name op); ("candidates", "1") ])
    (fun () -> checker ?cegar_cap op (Measure.create (Kb.make t) p) n)
