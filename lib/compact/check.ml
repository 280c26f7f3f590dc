open Logic
module MB = Revision.Model_based
module Obs = Revkb_obs.Obs
module Session = Semantics.Session
module Ladder = Semantics.Ladder

(* CEGAR refinement count: witnesses blocked before a probe resolved.
   One increment per solver round-trip, so the counter is a direct read
   on how hard the Σ₂ checks are working. *)
let c_cegar = Obs.counter "check.cegar_iters"

(* x = N(x) for each letter of [xs]: a literal conjunction, so as a
   query premise it is pure assumption literals and encodes nothing. *)
let agree_on xs n =
  Formula.and_ (List.map (fun x -> Formula.lit (Var.Set.mem x n) x) xs)

(* Distance probes from a fixed interpretation to the models of [f]:
   one session holding [f] and a pinnable cardinality ladder, so every
   probe and every further reference point run on the same solver with
   [f] encoded exactly once. *)
module Dist = struct
  type t = { s : Session.t; fs : Formula.t list; pv : Ladder.pinned }

  let create f alphabet =
    let s = Session.create ~vars:alphabet () in
    { s; fs = [ f ]; pv = Ladder.against (Session.env s) alphabet }

  (* Is [n] within distance [k], counted on the ladder's letters, of a
     model of [f] that agrees with [n] on [fixed]?  One ladder probe;
     [f] must be satisfiable for a [false] to mean "farther than k". *)
  let within d ~fixed n k =
    Session.within d.s ~assume:(Ladder.pin d.pv n)
      (agree_on fixed n :: d.fs)
      (Ladder.ladder d.pv) k
end

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

(* CEGAR for the pointwise operators, all on ONE session per call site:
   witnesses are models of the premises [ws] ([t], pinned to the
   candidate outside V(P)) under a retractable blocking scope, and
   [refutes m] asks its own queries on the same solver (the blocking
   scope is not activated for those, so blocked witnesses never
   constrain a refutation probe).  It returns the refuting P-model N',
   read right after its own satisfiable query, exactly when the witness
   does NOT select [n]; the round then blocks every witness that N'
   refutes ({!refutation_core}), not just [m]. *)
let witness_loop (type m) (module M : Mask.S with type t = m) ctx s ws scope
    alpha (nm : m) ~refutes =
  let rec loop i =
    if i > ctx.cap then cegar_fail ctx
    else if not (Session.solve s ~scopes:[ scope ] ws) then false
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

(* The refuting P-model: the model of the query just answered [sat]. *)
let refuter (type m) (module M : Mask.S with type t = m) s alpha sat =
  if sat then Some (Session.mask_on (module M) s alpha : m) else None

(* A model of [p] strictly closer (inclusion-wise) to [m] than [n] is,
   if there is one, with d = M Δ N.  One query on the shared session:
   the agreement pin off d is pure assumption literals (premise of a
   literal conjunction), and the strict part, "disagree with N somewhere
   on d", is one blocking clause in a scope retired after the solve, so
   a probe leaves no Tseitin node and no live clause behind. *)
let closer_by_inclusion_in (type m) (module M : Mask.S with type t = m) s p
    alpha (m : m) n =
  let d = M.diff m n in
  if M.is_zero d then None
  else begin
    let agree =
      List.filter_map Fun.id
        (List.mapi
           (fun i x ->
             if M.test d i then None else Some (Formula.lit (M.test n i) x))
           (Interp_packed.letters alpha))
    in
    Session.with_retractable s (fun strict ->
        Session.block_mask (module M) ~on:d s strict alpha n;
        refuter (module M) s alpha
          (Session.solve s ~scopes:[ strict ] [ p; Formula.and_ agree ]))
  end

(* The pointwise checks, on the chunk's session, local to V(P) by
   Proposition 2.1: a T-model M that selects N agrees with N outside
   V(P), for flipping such a letter of N to M's value keeps P true and
   moves N strictly closer to M, by inclusion and by cardinality alike.
   So each witness query pins the [outside] letters to N, the witnesses
   are masks over [alpha] = V(P) alone, and a candidate runs at most
   2^|V(P)| refinements (each blocks its witness) with no new clause for
   the pins.  A refuting P-model may take M's values outside V(P), where
   P does not look, so the refutation probes ask [p] over V(P) only, and
   Forbus's one pinnable cardinality ladder [pv] per chunk spans V(P)
   (pins are assumptions, so candidates share it).  The witness blocking
   scope is the candidate's own and is retired when its loop ends,
   however it ends.  The witness masks take the representation
   {!Mask.engine} picks. *)

let winslett_in ctx s t p alpha outside n =
  let (module M) = Mask.engine alpha in
  let nm = M.pack alpha n in
  Session.with_retractable s (fun scope ->
      witness_loop (module M) ctx s
        [ t; agree_on outside n ]
        scope alpha nm
        ~refutes:(fun m -> closer_by_inclusion_in (module M) s p alpha m nm))

let forbus_in ctx s pv t p alpha outside n =
  let (module M) = Mask.engine alpha in
  let lad = Ladder.ladder pv in
  let nm = M.pack alpha n in
  Session.with_retractable s (fun scope ->
      witness_loop (module M) ctx s
        [ t; agree_on outside n ]
        scope alpha nm
        ~refutes:(fun m ->
          refuter (module M) s alpha
            (Session.closer_than s
               ~assume:(Ladder.pin_mask (module M) pv m)
               [ p ] lad (M.hamming m nm))))

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
   out of the per-candidate loop and shared.

   - Dalal: k_{T,P} ([Measure.k], a ladder threshold sweep) is computed
     once for the whole batch, and each pool chunk shares one [Dist]
     prober with T encoded once and its ladder over V(P).  A candidate
     N |= P is then one probe: is some model X of T that agrees with N
     outside V(P) within k of N?  No model of P lies closer than k to T,
     so for such N "at most k" is "exactly k", which is membership; and
     a nearest X agrees with N outside V(P), for flipping a letter
     z ∉ V(P) of N to X(z) keeps P true at distance k − 1.
   - Weber: Ω(T, P) is computed once; each chunk holds one session
     with T asserted and pins the surviving letters per candidate.
   - Satoh: δ(T, P) is computed once; membership is then a pure
     evaluation over the difference sets, no solver at all.
   - Winslett / Forbus / Borgida: each chunk shares one CEGAR session,
     so T's encoding and the solver's learned clauses carry across
     candidates, and each candidate's search is local to V(P).  The
     chunk also builds Forbus's one pinnable ladder over V(P) and
     decides Borgida's T ∧ P once.  Each candidate's witness
     blocking and each inclusion probe's strict clause live in scopes
     retired when they end, so no candidate constrains the next.

   The first three take their T/P satisfiability guard from their
   measure's session; the CEGAR operators run {!require_sat}.  Either
   way T's decision is taken here, on the calling domain, before any
   chunk runs.

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
          let alphabet = Var.Set.elements va in
          let arr = Array.of_list (List.map (Interp.restrict va) ns) in
          let vp = Var.Set.elements vp_set in
          let outside = Var.Set.elements (Var.Set.diff (Kb.vars kb) vp_set) in
          let pool = Revkb_parallel.Pool.global () in
          let answers =
            match op with
            | MB.Dalal ->
                let k = Measure.k (Measure.create kb p) in
                Revkb_parallel.Pool.map_array_with pool
                  ~init:(fun () -> Dist.create t vp)
                  (fun d n ->
                    Interp.sat n p && Dist.within d ~fixed:outside n k)
                  arr
            | MB.Weber ->
                let omega = Measure.omega (Measure.create kb p) in
                let fixed =
                  List.filter (fun x -> not (Var.Set.mem x omega)) alphabet
                in
                Revkb_parallel.Pool.map_array_with pool
                  ~init:(fun () ->
                    let s = Session.create ~vars:alphabet () in
                    Session.assert_always s t;
                    s)
                  (fun s n ->
                    Interp.sat n p
                    && Session.solve s [ agree_on fixed n ])
                  arr
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
                let ctx = ctx_for ~cap:cegar_cap op alphabet in
                let alpha = Interp_packed.alphabet vp in
                (* One session per chunk, and the chunk's checker: what
                   depends only on (T, P, alphabet) is built at most once
                   per chunk, when the first P-model candidate needs it. *)
                let chunk () =
                  let s = Session.create ~vars:alphabet () in
                  match op with
                  | MB.Forbus ->
                      let pv = lazy (Ladder.against (Session.env s) vp) in
                      fun n ->
                        forbus_in ctx s (Lazy.force pv) t p alpha outside n
                  | MB.Borgida ->
                      let consistent = lazy (Session.solve s [ t; p ]) in
                      fun n ->
                        if Lazy.force consistent then Interp.sat n t
                        else winslett_in ctx s t p alpha outside n
                  | _ -> winslett_in ctx s t p alpha outside
                in
                Revkb_parallel.Pool.map_array_with pool ~init:chunk
                  (fun check n -> Interp.sat n p && check n)
                  arr
          in
          Array.to_list answers)

let model_check ?cegar_cap op t p n =
  match model_check_batch ?cegar_cap op (Kb.make t) p [ n ] with
  | [ b ] -> b
  | _ -> assert false (* one answer per candidate *)
