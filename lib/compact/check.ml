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

(* CEGAR for the pointwise operators, on the measure's session:
   witnesses are models of T under the assumptions [pins] (T's letters
   outside V(P) set to the candidate) and a retractable blocking scope,
   and [refutes m] asks its own query on the same solver (the blocking
   scope is not activated for it, so blocked witnesses never constrain
   a refutation probe).  It returns the refuting P-model N', read right
   after its own satisfiable query, exactly when the witness does NOT
   select [n]; the round then blocks every witness that N' refutes
   ({!refutation_core}), not just [m]. *)
let witness_loop (type m) (module M : Mask.S with type t = m) budget s pins
    scope alpha (nm : m) ~refutes =
  let rec loop i =
    budget i;
    if not (Session.solve s ~scopes:[ scope ] ~extra:pins []) then false
    else begin
      let m = Session.mask_on (module M) s alpha in
      match refutes m with
      | Some n' ->
          Obs.incr c_cegar;
          let on =
            refutation_core (module M) ~witness:m ~candidate:nm ~refuter:n'
          in
          Session.block_mask (module M) ~on s scope alpha n';
          loop (i + 1)
      | None -> true
    end
  in
  loop 0

(* The pointwise checks, local to V(P) by Proposition 2.1: a T-model M
   that selects N agrees with N outside V(P), for flipping such a
   letter of N to M's value keeps P true and moves N strictly closer to
   M, by inclusion and by cardinality alike.  So each witness query
   pins the [outside] letters to N, the witnesses are masks over
   [alpha] = V(P) alone, and a candidate runs at most 2^|V(P)|
   refinements (each blocks its witness) with no new clause for the
   pins.  A refuting P-model may take M's values outside V(P), where P
   does not look, so a refutation is one probe on the measure's ladder
   with V(P) pinned to M: its difference literals then spell out
   M Δ N' for the model N' of P on the copies, and N' refutes M when
   |M Δ N'| < |M Δ N| (Forbus), or when in addition every difference
   outside M Δ N is off (inclusion: Winslett, Borgida).  The witness
   blocking scope is the candidate's own and is retired when its loop
   ends, however it ends.  The witness masks take the representation
   {!Mask.engine} picks. *)
let cegar_in budget ~inclusion m alpha outside n =
  let (module M) = Mask.engine alpha in
  let s = Measure.session m in
  let env = Session.env s in
  let letters = Interp_packed.letters alpha in
  let ys = Measure.copies m in
  let y = Array.of_list ys in
  let nm = M.pack alpha n and pins = agree_on env outside n in
  let refutes wm =
    let d = M.diff wm nm in
    let inside =
      if not inclusion then []
      else
        List.concat
          (List.mapi
             (fun i dl -> if M.test d i then [] else [ Satsolver.Lit.neg dl ])
             (Measure.diff_lits m))
    in
    let at_m = List.mapi (fun i x -> pin env x (M.test wm i)) letters in
    if
      Session.closer_than s
        ~assume:(at_m @ pins @ inside)
        [] (Measure.ladder m) (M.hamming wm nm)
    then
      let n' = Semantics.model_on env ys in
      Some (M.init alpha (fun i -> Var.Set.mem y.(i) n'))
    else None
  in
  Session.with_retractable s (fun scope ->
      witness_loop (module M) budget s pins scope alpha nm ~refutes)

(* The per-candidate checker of [m]'s pair (check.mli).  Every
   candidate asks its questions on [m]'s session, so T's encoding, the
   ladder and the learned clauses carry across candidates. *)
let checker ?(cegar_cap = 50_000) op m =
  let kb = Measure.kb m and p = Measure.p m in
  let vp_set = Formula.vars p in
  let va = Var.Set.union (Kb.vars kb) vp_set in
  let outside = Var.Set.elements (Var.Set.diff (Kb.vars kb) vp_set) in
  (* Refinement [i] of a witness loop; past the cap it raises, naming
     the operator and the alphabet width. *)
  let budget i =
    if i > cegar_cap then
      raise
        (Cegar_cap_exceeded
           { cap = cegar_cap; opname = MB.name op;
             nletters = Var.Set.cardinal va })
  in
  let alpha = Interp_packed.alphabet (Var.Set.elements vp_set) in
  let cegar ~inclusion = cegar_in budget ~inclusion m alpha outside in
  let check =
    match op with
    | MB.Dalal | MB.Weber | MB.Satoh -> Measure.member m op
    | MB.Winslett -> cegar ~inclusion:true
    | MB.Forbus -> cegar ~inclusion:false
    | MB.Borgida ->
        let consistent =
          lazy
            (Session.solve (Measure.session m)
               ~extra:(List.map Satsolver.Lit.neg (Measure.diff_lits m))
               [])
        in
        fun n ->
          if Lazy.force consistent then Interp.sat n (Kb.formula kb)
          else cegar ~inclusion:true n
  in
  fun n ->
    let n = Interp.restrict va n in
    Interp.sat n p && check n

let model_check ?cegar_cap op t p n =
  Obs.with_span "check.batch"
    ~attrs:(fun () -> [ ("op", MB.name op); ("candidates", "1") ])
    (fun () -> checker ?cegar_cap op (Measure.create (Kb.make t) p) n)
