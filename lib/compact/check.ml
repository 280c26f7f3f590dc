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

(* The candidate [n] on the measure's session: T's letters outside V(P)
   and P's copies of V(P) take [n]'s values, so the T side moves on
   V(P) alone and the difference literals spell out its moves away
   from [n]. *)
let pin_candidate m vp outside n =
  let env = Session.env (Measure.session m) in
  agree_on env outside n
  @ List.map2 (fun x y -> pin env y (Var.Set.mem x n)) vp (Measure.copies m)

(* Context threaded through the CEGAR loops so a cap failure names the
   operator, the cap, and the alphabet width it died on. *)
type cegar_ctx = { cap : int; opname : string; nletters : int }

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

let cegar_fail ctx =
  raise
    (Cegar_cap_exceeded
       { cap = ctx.cap; opname = ctx.opname; nletters = ctx.nletters })

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

(* CEGAR for the pointwise operators, on the chunk's measure session:
   witnesses are models of T under the assumptions [pins] (T's letters
   outside V(P) set to the candidate) and a retractable blocking scope,
   and [refutes m] asks its own query on the same solver (the blocking
   scope is not activated for it, so blocked witnesses never constrain
   a refutation probe).  It returns the refuting P-model N', read right
   after its own satisfiable query, exactly when the witness does NOT
   select [n]; the round then blocks every witness that N' refutes
   ({!refutation_core}), not just [m]. *)
let witness_loop (type m) (module M : Mask.S with type t = m) ctx s pins scope
    alpha (nm : m) ~refutes =
  let rec loop i =
    if i > ctx.cap then cegar_fail ctx
    else if not (Session.solve s ~scopes:[ scope ] ~extra:pins []) then false
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
let cegar_in ctx ~inclusion m alpha outside n =
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
      witness_loop (module M) ctx s pins scope alpha nm ~refutes)

let ctx_for ~cap op alphabet =
  { cap; opname = MB.name op; nletters = List.length alphabet }

(* The guard of the operators that measure nothing: T's handle holds
   its decision, and P gets one plain check.  Dalal, Weber and Satoh
   take theirs from their {!Measure}. *)
let require_sat kb p =
  if not (Kb.is_sat kb) then invalid_arg "Compact.Check: T unsatisfiable";
  if not (Semantics.is_sat p) then
    invalid_arg "Compact.Check: P unsatisfiable"

(* Membership of a batch of candidates: the per-(T, P) setup is hoisted
   out of the per-candidate loop and shared.  Every solver question is
   asked on a {!Measure} session, one per pool chunk, which holds
   T ∧ P[V(P)/Y] and a difference literal per letter of V(P).

   - Dalal: the chunk's measure computes k_{T,P} (a ladder threshold
     sweep) once.  A candidate N |= P is then one probe on its ladder,
     with P's copies and T's letters outside V(P) pinned to N: is some
     model X of T that agrees with N outside V(P) within k of N?  No
     model of P lies closer than k to T, so for such N "at most k" is
     "exactly k", which is membership; and a nearest X agrees with N
     outside V(P), for flipping a letter z ∉ V(P) of N to X(z) keeps P
     true at distance k − 1.
   - Weber: Ω(T, P) is computed once, on a measure of the calling
     domain; a candidate is one solve on its chunk's measure, pinned as
     Dalal's, with the difference literals outside Ω off.
   - Satoh: δ(T, P) is computed once, on the same kind of measure;
     membership is then a pure evaluation over the difference sets.
   - Winslett / Forbus / Borgida: each chunk's CEGAR loops share its
     measure, so T's encoding, the ladder and the solver's learned
     clauses carry across candidates, and each candidate's search is
     local to V(P).  Borgida's T ∧ P decision is one solve per chunk
     with every difference literal off.  Each candidate's witness
     blocking lives in a scope retired when it ends, so no candidate
     constrains the next.

   Dalal takes its T/P satisfiability guard from its chunks' measures,
   Weber and Satoh from their calling-domain measure, and the CEGAR
   operators run {!require_sat} first.  A Dalal batch on an undecided
   handle therefore decides T in its chunks: on the calling domain at
   one job, and possibly once per concurrent chunk at more (both
   deciders store the same answer).

   Answers are slotted in candidate order and depend only on (op, T,
   P, candidate) — never on chunk boundaries — so the result is
   bit-identical at every job count and for every batching. *)
let model_check_batch ?(cegar_cap = 50_000) op kb p ns =
  match ns with
  | [] -> []
  | _ ->
      Obs.with_span "check.batch"
        ~attrs:(fun () ->
          [ ("op", MB.name op); ("candidates", string_of_int (List.length ns)) ])
        (fun () ->
          let t = Kb.formula kb and vp_set = Formula.vars p in
          let va = Var.Set.union (Kb.vars kb) vp_set in
          let arr = Array.of_list (List.map (Interp.restrict va) ns) in
          let vp = Var.Set.elements vp_set in
          let outside = Var.Set.elements (Var.Set.diff (Kb.vars kb) vp_set) in
          (* [checker m n] on the P-model candidates, with one measure
             [m] per chunk built on the chunk's domain. *)
          let per_chunk checker =
            Revkb_parallel.Pool.map_array_with (Revkb_parallel.Pool.global ())
              ~init:(fun () -> checker (Measure.create kb p))
              (fun check n -> Interp.sat n p && check n)
              arr
          in
          let answers =
            match op with
            | MB.Dalal ->
                per_chunk (fun m n ->
                    Session.within (Measure.session m)
                      ~assume:(pin_candidate m vp outside n)
                      [] (Measure.ladder m) (Measure.k m))
            | MB.Weber ->
                let omega = Measure.omega (Measure.create kb p) in
                per_chunk (fun m ->
                    let off =
                      List.concat
                        (List.map2
                           (fun x d ->
                             if Var.Set.mem x omega then []
                             else [ Satsolver.Lit.neg d ])
                           vp (Measure.diff_lits m))
                    in
                    fun n ->
                      Session.solve (Measure.session m)
                        ~extra:(pin_candidate m vp outside n @ off)
                        [])
            | MB.Satoh ->
                let delta = Measure.delta (Measure.create kb p) in
                Array.map
                  (fun n ->
                    Interp.sat n p
                    && List.exists
                         (fun s -> Interp.sat (Interp.sym_diff n s) t)
                         delta)
                  arr
            | MB.Winslett | MB.Forbus | MB.Borgida ->
                require_sat kb p;
                let ctx = ctx_for ~cap:cegar_cap op (Var.Set.elements va) in
                let alpha = Interp_packed.alphabet vp in
                let cegar ~inclusion m = cegar_in ctx ~inclusion m alpha outside in
                per_chunk (fun m ->
                    match op with
                    | MB.Forbus -> cegar ~inclusion:false m
                    | MB.Borgida ->
                        let consistent =
                          lazy
                            (Session.solve (Measure.session m)
                               ~extra:
                                 (List.map Satsolver.Lit.neg
                                    (Measure.diff_lits m))
                               [])
                        in
                        fun n ->
                          if Lazy.force consistent then Interp.sat n t
                          else cegar ~inclusion:true m n
                    | _ -> cegar ~inclusion:true m)
          in
          Array.to_list answers)

let model_check ?cegar_cap op t p n =
  match model_check_batch ?cegar_cap op (Kb.make t) p [ n ] with
  | [ b ] -> b
  | _ -> assert false (* one answer per candidate *)
