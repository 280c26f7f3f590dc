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

(* x = N(x) for each letter of [xs]: assumption literals, no clause. *)
let agree_on env xs n = List.map (fun x -> pin env x (Var.Set.mem x n)) xs

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

(* The ∃∀ loop of both questions, on the measure's session: [find ()]
   asks for a witness under the blocking [scope] (which a refutation
   probe never activates, so blocked witnesses never constrain one),
   and [refute w] returns the clause blocking every witness that the
   same P-model refutes along with [w] (the bits it is read on, and
   their values), or [None] when [w] stands. *)
let witness_loop (type m) (module M : Mask.S with type t = m) budget s scope
    alpha ~find ~refute =
  let rec loop i =
    budget i;
    if not (find ()) then false
    else
      match refute (Session.mask_on (module M) s alpha) with
      | Some (on, value) ->
          Obs.incr c_cegar;
          Session.block_mask (module M) ~on s scope alpha value;
          loop (i + 1)
      | None -> true
  in
  loop 0

(* The refutation probe of a witness M against a P-model N, V(P)'s
   [i]-th letter at position [at i] of their masks: V(P) pinned to M,
   the pins [assume], and one ladder probe below |M Δ N| with, under
   inclusion, every difference outside M Δ N off.  With V(P) pinned
   the difference literals spell out M Δ N' for the P-model N' on the
   copies, so a satisfiable probe is a refutation: N', read off the
   copies as the mask of the V(P) letters they make true. *)
let refutation (type m) (module M : Mask.S with type t = m) ~inclusion m vp
    alpha ~at ~assume wm nm =
  let s = Measure.session m in
  let env = Session.env s in
  let d = M.diff wm nm in
  let inside =
    if not inclusion then []
    else
      List.concat
        (List.mapi
           (fun i dl ->
             if M.test d (at i) then [] else [ Satsolver.Lit.neg dl ])
           (Measure.diff_lits m))
  in
  let at_m = List.mapi (fun i x -> pin env x (M.test wm (at i))) vp in
  if
    Session.closer_than s
      ~assume:(at_m @ assume @ inside)
      [] (Measure.ladder m) (M.hamming wm nm)
  then
    let ys = Measure.copies m in
    let n' = Semantics.model_on env ys in
    let bit = Array.make (Interp_packed.size alpha) false in
    List.iteri (fun i y -> bit.(at i) <- Var.Set.mem y n') ys;
    Some (M.init alpha (Array.get bit))
  else None

(* The pointwise checks, local to V(P) by Proposition 2.1: a T-model M
   that selects N agrees with N outside V(P), for flipping such a
   letter of N to M's value keeps P true and moves N strictly closer to
   M, by inclusion and by cardinality alike.  So each witness query
   pins the [outside] letters to N, the witnesses are masks over
   [alpha] = V(P) alone, and a candidate runs at most 2^|V(P)|
   refinements (each blocks its witness) with no new clause for the
   pins.  A refuting P-model N' may take M's values outside V(P),
   where P does not look, so a refutation is one {!refutation} probe,
   and N' refutes M when |M Δ N'| < |M Δ N| (Forbus), or when in
   addition every difference outside M Δ N is off (inclusion:
   Winslett, Borgida).  The round then blocks every witness that N'
   refutes ({!refutation_core}), not just M.  The witness blocking
   scope is the candidate's own and is retired when its loop ends,
   however it ends.  [alpha] lists V(P) in its own order, so position
   [i] is V(P)'s [i]-th letter.  The witness masks take the
   representation {!Mask.engine} picks. *)
let cegar_in budget ~inclusion m vp alpha outside n =
  let (module M) = Mask.engine alpha in
  let s = Measure.session m in
  let nm = M.pack alpha n and pins = agree_on (Session.env s) outside n in
  let refute wm =
    Option.map
      (fun n' ->
        (refutation_core (module M) ~witness:wm ~candidate:nm ~refuter:n', n'))
      (refutation (module M) ~inclusion m vp alpha ~at:Fun.id ~assume:pins wm
         nm)
  in
  Session.with_retractable s (fun scope ->
      witness_loop (module M) budget s scope alpha
        ~find:(fun () -> Session.solve s ~scopes:[ scope ] ~extra:pins [])
        ~refute)

(* Non-entailment for the pointwise operators, the same loop over model
   pairs: a witness is a model of the session and [¬q] read on the
   copies, M on T's letters and N on the copies (N is M outside V(P)
   by Proposition 2.1), and it stands when no P-model refutes M
   against N, that is when M selects N and so N is a model of T * P
   falsifying q.  A refuter N' of M against N refutes against N every
   M' agreeing with N' on A = {!refutation_core}, so the round blocks
   the pairs with N's copy values and N''s values on A, and a query
   runs at most 4^|V(P)| refinements.  The blocks sit in the query's
   own scope, retired when it ends, as a candidate's are.  The witness
   masks span V(P) and the copies, ordered as {!Interp_packed.alphabet}
   orders them (by interning), so each position of a letter or its
   copy is looked up. *)
let query_loop budget ~inclusion m vp =
  let s = Measure.session m in
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
      (refutation (module M) ~inclusion m vp alpha ~at:(Array.get px)
         ~assume:[] wm nm)
  in
  fun q ->
    let not_q = [ Formula.not_ (Measure.on_copies m q) ] in
    Session.with_retractable s (fun scope ->
        not
          (witness_loop (module M) budget s scope alpha
             ~find:(fun () -> Session.solve s ~scopes:[ scope ] not_q)
             ~refute))

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

(* The per-candidate checker of [m]'s pair (check.mli).  Every
   candidate asks its questions on [m]'s session, so T's encoding, the
   ladder and the learned clauses carry across candidates. *)
let checker ?(cegar_cap = 50_000) op m =
  let kb = Measure.kb m and p = Measure.p m in
  let vp_set = Formula.vars p in
  let va = Var.Set.union (Kb.vars kb) vp_set in
  let vp = Var.Set.elements vp_set in
  let outside = Var.Set.elements (Var.Set.diff (Kb.vars kb) vp_set) in
  let alpha = Interp_packed.alphabet vp in
  let cegar ~inclusion =
    cegar_in (budget cegar_cap op m) ~inclusion m vp alpha outside
  in
  let check =
    match op with
    | MB.Dalal | MB.Weber | MB.Satoh -> Measure.member m op
    | MB.Winslett -> cegar ~inclusion:true
    | MB.Forbus -> cegar ~inclusion:false
    | MB.Borgida ->
        fun n ->
          if Measure.compatible m then Interp.sat n (Kb.formula kb)
          else cegar ~inclusion:true n
  in
  fun n ->
    let n = Interp.restrict va n in
    Interp.sat n p && check n

(* The entailment test of [m]'s pair (check.mli). *)
let entails ?(cegar_cap = 50_000) op m =
  let vp = Var.Set.elements (Formula.vars (Measure.p m)) in
  let loop ~inclusion = query_loop (budget cegar_cap op m) ~inclusion m vp in
  match op with
  | MB.Dalal | MB.Weber | MB.Satoh -> Measure.entails m op
  | MB.Borgida when Measure.compatible m ->
      let off = List.map Satsolver.Lit.neg (Measure.diff_lits m) in
      fun q ->
        not
          (Session.solve (Measure.session m) ~extra:off
             [ Formula.not_ (Measure.on_copies m q) ])
  | MB.Winslett | MB.Borgida -> loop ~inclusion:true
  | MB.Forbus -> loop ~inclusion:false

let model_check ?cegar_cap op t p n =
  Obs.with_span "check.batch"
    ~attrs:(fun () -> [ ("op", MB.name op); ("candidates", "1") ])
    (fun () -> checker ?cegar_cap op (Measure.create (Kb.make t) p) n)
