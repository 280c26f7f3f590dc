(* Incremental SAT sessions: differential tests of the shared
   cardinality ladder against the per-k EXA encodings, the solver work
   sessions save over fresh solvers, the retract (activation-literal)
   discipline, and one checker per pair answering as each candidate's
   own. *)

open Logic
open Helpers
open Revkb_oracle
module Session = Semantics.Session
module Ladder = Semantics.Ladder
module Check = Compact.Check
module MB = Revision.Model_based
module Obs = Revkb_obs.Obs

(* Build the standard min-distance setup on one session: [t] renamed to
   fresh letters, [p] on the originals, one ladder over the pairs. *)
let distance_session t _p x =
  let ys = List.map (Var.copy_of ~suffix:"__z") x in
  let t_y = Formula.rename (List.combine x ys) t in
  let s = Session.create ~vars:x () in
  let env = Session.env s in
  let pairs =
    List.map2
      (fun a b -> (Semantics.lit_of_var env a, Semantics.lit_of_var env b))
      x ys
  in
  (s, t_y, ys, Ladder.of_lits env (List.map (Ladder.diff_lit env) pairs))

(* -- ladder vs EXA ------------------------------------------------------- *)

(* For every threshold k on alphabets up to n = 8: "at most k" by one
   ladder assumption on a live session is equisatisfiable with a fresh
   disjunction of [Hamming.exa j] builds, j <= k, and with the
   auxiliary-free [exa_direct]. *)
let ladder_matches_exa n =
  let x = letters n in
  qtest
    (Printf.sprintf "ladder = exa = exa_direct, every k (n=%d)" n)
    ~count:40
    (arb_pair (arb_formula x) (arb_formula x))
    (fun (t, p) ->
      let s, t_y, ys, lad = distance_session t p x in
      List.for_all
        (fun k ->
          let sess = Session.within s [ t_y; p ] lad k in
          let upto exa_j =
            Semantics.is_sat
              (Formula.and_ [ t_y; p; Formula.or_ (List.init (k + 1) exa_j) ])
          in
          let exa = upto (fun j -> fst (Hamming.exa ~avoid:Var.Set.empty j x ys)) in
          let direct = upto (fun j -> Hamming.exa_direct j x ys) in
          sess = exa && exa = direct)
        (List.init (n + 1) Fun.id))

(* [within] ("at most k") is monotone in k on a shared session. *)
let prop_within_monotone =
  let x = letters 6 in
  qtest "within monotone in k" ~count:100
    (arb_pair (arb_formula x) (arb_formula x))
    (fun (t, p) ->
      let s, t_y, _, lad = distance_session t p x in
      let probes =
        List.init 7 (fun k -> Session.within s [ t_y; p ] lad k)
      in
      fst
        (List.fold_left
           (fun (ok, prev) b -> (ok && ((not prev) || b), b))
           (true, false) probes))

(* k_{T,P} from the measure's ladder; an unsatisfiable side is the
   measure's guard, where the oracle answers [None]. *)
let measure_k t p =
  match Compact.Measure.create (Kb.make t) p with
  | m -> Some (Compact.Measure.k m)
  | exception Invalid_argument _ -> None

let prop_min_distance_matches_exa =
  let x = letters 6 in
  qtest "Measure.k = min_distance_exa" ~count:150
    (arb_pair (arb_formula x) (arb_formula x))
    (fun (t, p) -> measure_k t p = Fresh.min_distance_exa t p)

let prop_dist_to_matches_fresh =
  let x = letters 6 in
  qtest "ladder dist_to = Fresh.dist_to" ~count:150
    (arb_pair (arb_formula x) (arb_interp x))
    (fun (fm, n) -> ladder_dist_to fm n x = Fresh.dist_to fm n x)

(* One prober answers every reference point like one-shot [dist_to]
   does. *)
let prop_dist_prober_reusable =
  let x = letters 5 in
  qtest "ladder prober = dist_to on every reference" ~count:80
    (arb_formula x)
    (fun fm ->
      let d = ladder_prober fm x in
      List.for_all
        (fun n -> d n = Fresh.dist_to fm n x)
        (Interp.subsets x))

(* [closer_than d] on a pinned ladder: is some model of [fm] at Hamming
   distance below [d] from the reference point?  Every threshold from 0
   past the alphabet's width, against the distances of the models. *)
let prop_closer_than_matches_distances =
  let x = letters 5 in
  qtest "closer_than d = a model nearer than d" ~count:100
    (arb_pair (arb_formula x) (arb_interp x))
    (fun (fm, n) ->
      let s = Session.create ~vars:x () in
      let lad, pin = pinned_ladder (Session.env s) x in
      let assume = pin n in
      let dists =
        List.map
          (fun m -> Var.Set.cardinal (Interp.sym_diff m n))
          (Models.enumerate x fm)
      in
      List.for_all
        (fun d ->
          Session.closer_than ~assume s [ fm ] lad d
          = List.exists (fun e -> e < d) dists)
        (List.init (List.length x + 2) Fun.id))

(* -- fixed instances: same answers, less solver work ---------------------- *)

(* Seeded instances on which the fresh-solver baselines pay most.  On
   each, the session path must answer alike and encode fewer clauses;
   on the Dalal sweeps and the CEGAR check it must also build at most a
   third as many solvers.  Counters record whether or not Obs is on. *)
let work f =
  let count c = Obs.value (Obs.counter c) in
  let b0 = count "sem.env.builds" and c0 = count "sem.encode.clauses" in
  let r = f () in
  (r, count "sem.env.builds" - b0, count "sem.encode.clauses" - c0)

let less_work ?(builds_3x = true) name fresh session =
  let fr, fb, fc = work fresh in
  let se, sb, sc = work session in
  check_bool (name ^ ": session = fresh") true (fr = se);
  check_bool (Printf.sprintf "%s: clauses %d < %d" name sc fc) true (sc < fc);
  if builds_3x then
    check_bool (Printf.sprintf "%s: builds 3*%d <= %d" name sb fb) true
      (3 * sb <= fb)

let rec sat_formula st ~vars ~depth =
  let fm = Gen.formula st ~vars ~depth in
  if Semantics.is_sat fm then fm else sat_formula st ~vars ~depth

let seeded () = Random.State.make [| 19951 |]
let first k l = List.filteri (fun i _ -> i < k) l

(* k_{T,P} sweeps: antipodal T and P probe all n+1 thresholds; n = 15
   pins 6 letters apart under random structure on the rest. *)
let test_dalal_work () =
  List.iter
    (fun n ->
      let vars = letters n in
      let pos = List.map Formula.var vars in
      let neg = List.map Formula.not_ pos in
      let t, p =
        if n mod 2 = 0 then (pos, neg)
        else
          let st = seeded () and rest = List.filteri (fun i _ -> i >= 6) vars in
          let t = sat_formula st ~vars:rest ~depth:3 :: first 6 pos in
          (t, sat_formula st ~vars:rest ~depth:3 :: first 6 neg)
      in
      let t = Formula.and_ t and p = Formula.and_ p in
      less_work (Printf.sprintf "min distance n=%d" n)
        (fun () -> Fresh.min_distance_exa t p)
        (fun () -> measure_k t p))
    [ 12; 15; 20 ]

(* 64 reference points against one formula, one reused prober. *)
let test_dist_work () =
  let vars = letters 14 in
  let fm = sat_formula (seeded ()) ~vars ~depth:4 in
  let refs =
    List.init 64 (fun i ->
        let m = i * 7919 land 0x3fff in
        (* lint: shift-ok j < 14 *)
        Var.set_of_list (List.filteri (fun j _ -> m land (1 lsl j) <> 0) vars))
  in
  less_work ~builds_3x:false "dist_to sweep n=14"
    (fun () -> List.map (fun r -> Fresh.dist_to fm r vars) refs)
    (fun () ->
      List.map (ladder_prober fm vars) refs)

(* At most one of the letters is true: n+1 models. *)
let at_most_one vars =
  let nv x = Formula.not_ (Formula.var x) in
  let rec pairs = function
    | [] -> []
    | x :: rest ->
        List.map (fun y -> Formula.or_ [ nv x; nv y ]) rest @ pairs rest
  in
  Formula.and_ (pairs vars)

(* At-most-one-true T has n+1 models, none of them the weight-2
   candidate, so Forbus CEGAR refutes every witness before answering. *)
let test_cegar_work () =
  List.iter
    (fun n ->
      let vars = letters n in
      let t = at_most_one vars in
      let cand = Var.set_of_list (first 2 vars) in
      let st = seeded () in
      let rec block () =
        let b = sat_formula st ~vars ~depth:4 in
        if Interp.sat cand b then b else block ()
      in
      let p = Formula.and_ (List.init 6 (fun _ -> block ())) in
      less_work (Printf.sprintf "Forbus CEGAR n=%d" n)
        (fun () -> Fresh.model_check MB.Forbus t p cand)
        (fun () -> Check.model_check MB.Forbus t p cand))
    [ 12; 16 ]

(* A 3-CNF T goes past the clausal fast path to the solver; a Horn P
   does not. *)
let cnf3_t =
  f
    "(x1 | x2 | ~x3) & (~x1 | ~x2 | x3) & (x2 | x3 | ~x4) & (~x2 | ~x3 | \
     x4) & (x1 | x4 | x5) & (~x1 | ~x4 | ~x5)"

let horn_p = f "x1 & (~x1 | ~x2) & (~x3 | x4) & ~x5"

(* Each public entry point decides T and P once: a checker and the
   measuring constructions take the guard from their Measure session,
   the other constructions run one plain check per formula.  So on
   [cnf3_t] and [horn_p] one checker's candidates build at most two
   solvers, and so does one entailment, except that Borgida's also
   decides T ∧ P. *)
let test_guard_builds () =
  let t = cnf3_t and p = horn_p in
  let q = f "x3 -> x4" in
  let ns = Interp.subsets (letters 5) in
  List.iter
    (fun op ->
      let name = MB.name op in
      let answers, builds, _ = work (fun () -> check_all op (Kb.make t) p ns) in
      check_bool (name ^ ": batch = fresh") true
        (answers = List.map (Fresh.model_check op t p) ns);
      check_bool (Printf.sprintf "%s: batch builds %d <= 2" name builds)
        true (builds <= 2);
      let _, builds, _ = work (fun () ->
            Semantics.entails (Compact.Construct.revise op (Kb.make t) p) q) in
      let cap = if op = MB.Borgida then 3 else 2 in
      check_bool
        (Printf.sprintf "%s: entails builds %d <= %d" name builds cap)
        true (builds <= cap))
    MB.all

(* Every solver question of a checker is asked on its measure's
   session: one solver, which computes k, Ω or δ and answers every
   candidate. *)
let test_batch_builds () =
  let t = f "x1 & (~x1 | x2) & (~x2 | ~x3 | x4)" in
  let p = f "~x2 & (x3 | ~x5)" in
  let ns = Interp.subsets (letters 5) in
  List.iter
    (fun op ->
      let name = MB.name op in
      let answers, builds, _ = work (fun () -> check_all op (Kb.make t) p ns) in
      check_bool (name ^ ": batch = fresh") true
        (answers = List.map (Fresh.model_check op t p) ns);
      check_int (name ^ ": solvers built") 1 builds)
    MB.all

(* A checker's T/P guard is its measure: on [cnf3_t], past the clausal
   fast path, a CEGAR checker builds that one solver and decides T on
   it, with no guard solver beside it. *)
let test_no_guard_solver () =
  let ns = Interp.subsets (letters 5) in
  List.iter
    (fun op ->
      let _, builds, _ =
        work (fun () -> check_all op (Kb.make cnf3_t) horn_p ns)
      in
      check_int (MB.name op ^ ": solvers built") 1 builds)
    [ MB.Winslett; MB.Forbus; MB.Borgida ]

(* Weber over a 6-letter P: 64 candidates ask one measure, so the
   solver work is the same at one and at four worker domains, and one
   solver is built at either. *)
let test_weber_jobs_work () =
  let t =
    f "(x1 | x2 | x7) & (~x3 | x4 | x8) & (x5 | ~x6 | ~x7) & (x2 | ~x8)"
  in
  let p = f "(~x1 | ~x2) & (x3 | x4) & (~x5 | x6)" in
  let ns =
    List.map
      (fun a -> Var.Set.union a (Var.set_of_list [ Var.named "x7" ]))
      (Interp.subsets (letters 6))
  in
  let at jobs =
    Revkb_parallel.Pool.with_jobs jobs (fun () ->
        let solves0 = Obs.value (Obs.counter "sat.solves") in
        let answers, builds, _ =
          work (fun () -> check_all MB.Weber (Kb.make t) p ns)
        in
        (answers, builds, Obs.value (Obs.counter "sat.solves") - solves0))
  in
  let a1, b1, s1 = at 1 and a4, b4, s4 = at 4 in
  check_int "64 candidates" 64 (List.length ns);
  check_bool "answers = fresh" true
    (a1 = List.map (Fresh.model_check MB.Weber t p) ns);
  check_bool "jobs 1 = jobs 4" true (a1 = a4);
  check_int "one solver at jobs 1" 1 b1;
  check_int "one solver at jobs 4" 1 b4;
  check_int (Printf.sprintf "sat.solves at jobs 4 = %d at jobs 1" s1) s1 s4

(* The per-candidate step of a checker pays only for the candidate.  A
   Dalal checker makes the measure's k + 1 threshold probes, then one
   probe per P-model candidate (none for the others), farther ones
   included.  A Forbus candidate costs its refinements and its scope,
   never a cardinality ladder of its own: the measure builds one. *)
let test_per_candidate_work () =
  let count c = Obs.value (Obs.counter c) in
  let x = letters 5 in
  let t = f "x1 & x2 & x3" and p = f "~x1 | (~x2 & ~x3)" in
  let ns = Interp.subsets x in
  let k = Compact.Measure.k (Compact.Measure.create (Kb.make t) p) in
  let on_p = List.filter (fun n -> Interp.sat n p) ns in
  check_bool "some P-model lies farther than k" true
    (List.exists (fun n -> Fresh.dist_to t n x > Some k) on_p);
  let p0 = count "sem.ladder.probes" in
  let answers = check_all MB.Dalal (Kb.make t) p ns in
  let probes = count "sem.ladder.probes" - p0 in
  check_bool "Dalal batch = fresh" true
    (answers = List.map (Fresh.model_check MB.Dalal t p) ns);
  check_int
    (Printf.sprintf "Dalal probes = %d P-models + k + 1 (k = %d)"
       (List.length on_p) k)
    (List.length on_p + k + 1)
    probes;
  let vars = letters 12 in
  let t = at_most_one vars and p = f "x1 | x2" in
  let ladder =
    let s = Session.create ~vars () in
    let c0 = count "sem.encode.clauses" in
    ignore (pinned_ladder (Session.env s) vars);
    count "sem.encode.clauses" - c0
  in
  let x1 = List.hd vars in
  let ns =
    List.map
      (fun j -> Var.set_of_list [ x1; List.nth vars j ])
      [ 1; 2; 5; 9 ]
  in
  let clauses j =
    let c0 = count "sem.encode.clauses" in
    ignore (check_all MB.Forbus (Kb.make t) p (first j ns));
    count "sem.encode.clauses" - c0
  in
  List.iter
    (fun j ->
      let extra = clauses (j + 1) - clauses j in
      check_bool
        (Printf.sprintf "Forbus candidate %d adds %d clauses < %d (a ladder)"
           (j + 1) extra ladder)
        true (extra < ladder))
    [ 1; 2; 3 ]

(* Proposition 2.1 bounds each CEGAR candidate's search to V(P): on a
   satisfiable 20-letter 3-CNF T and a P over three letters, a Winslett
   or Forbus check refines at most 2^3 times per candidate, and a
   Forbus batch, guard included, encodes fewer clauses than one
   cardinality ladder over the whole alphabet. *)
let test_local_work () =
  let count c = Obs.value (Obs.counter c) in
  let vars = letters 20 in
  let st = seeded () in
  let rec sat_cnf () =
    let t = Gen.cnf3 st ~vars ~nclauses:60 in
    if Semantics.is_sat t then t else sat_cnf ()
  in
  let t = sat_cnf () and p = f "~x1 | (x2 & ~x3)" in
  (* Candidates near T: eight sampled T-models, each with V(P) rewritten
     to every P-model over it, so members and non-members both occur. *)
  let rec t_model () =
    let m = random_interp st ~vars in
    if Interp.sat m t then m else t_model ()
  in
  let vp = Formula.vars p in
  let ns =
    List.concat_map
      (fun m ->
        List.filter_map
          (fun a ->
            let n = Var.Set.union (Var.Set.diff m vp) a in
            if Interp.sat n p then Some n else None)
          (Interp.subsets (Var.Set.elements vp)))
      (List.init 8 (fun _ -> t_model ()))
  in
  let ladder =
    let s = Session.create ~vars () in
    let c0 = count "sem.encode.clauses" in
    ignore (pinned_ladder (Session.env s) vars);
    count "sem.encode.clauses" - c0
  in
  List.iter
    (fun op ->
      let name = MB.name op in
      let one n =
        let i0 = count "check.cegar_iters" in
        let b = Check.model_check op t p n in
        (b, count "check.cegar_iters" - i0)
      in
      let each = List.map one ns in
      let members = List.length (List.filter fst each) in
      let worst = List.fold_left (fun w (_, i) -> max w i) 0 each in
      check_bool
        (Printf.sprintf "%s: %d of %d candidates are members" name members
           (List.length ns))
        true
        (members > 0 && members < List.length ns);
      check_bool
        (Printf.sprintf "%s: at most %d refinements per candidate <= 2^3"
           name worst)
        true (worst <= 8);
      let c0 = count "sem.encode.clauses" in
      let answers = check_all op (Kb.make t) p ns in
      let clauses = count "sem.encode.clauses" - c0 in
      check_bool (name ^ ": batch = one by one") true
        (answers = List.map fst each);
      if op = MB.Forbus then
        check_bool
          (Printf.sprintf "Forbus batch encodes %d clauses < %d (a ladder)"
             clauses ladder)
          true (clauses < ladder))
    [ MB.Winslett; MB.Forbus ]

(* -- session-backed checkers vs the fresh-solver oracle ------------------- *)

(* The operators a witness loop answers for. *)
let pointwise_ops = [ MB.Winslett; MB.Forbus; MB.Borgida ]

let prop_model_check_matches_fresh =
  let x = letters 5 in
  qtest "model_check = Fresh.model_check (all ops)" ~count:60
    (arb_triple (arb_sat_formula x) (arb_sat_formula x) (arb_interp x))
    (fun (t, p, n) ->
      List.for_all
        (fun op ->
          Check.model_check op t p n = Fresh.model_check op t p n)
        MB.all)

(* One checker over every candidate of the alphabet runs in one
   session, so the state its candidates share (Forbus's ladder,
   Borgida's consistency bit, the retired witness and probe scopes)
   must never carry from one candidate to the next: each answer is the
   fresh solver's. *)
let prop_batch_matches_fresh =
  let x = letters 5 in
  let ns = Interp.subsets x in
  qtest "one checker over 2^5 = Fresh.model_check (all ops)" ~count:40
    (arb_pair (arb_sat_formula x) (arb_sat_formula x))
    (fun (t, p) ->
      List.for_all
        (fun op ->
          check_all op (Kb.make t) p ns
          = List.map (Fresh.model_check op t p) ns)
        MB.all)

(* P widened by the cube of a T-model on [pv], [pv]'s letters outside
   [tv] taken true: T ∧ P is then satisfiable, so Borgida is T ∧ P,
   and V(P) keeps the letters outside V(T). *)
let compatible_widening tv pv t p =
  let n = List.find (fun n -> Interp.sat n t) (Interp.subsets tv) in
  let lit x =
    if Var.Set.mem x n || not (List.mem x tv) then Formula.var x
    else Formula.not_ (Formula.var x)
  in
  Formula.or_ [ p; Formula.and_ (List.map lit pv) ]

(* Proposition 2.1's locality on the alphabet's edges: P names a letter
   outside V(T) and leaves some of V(T) out, and the candidates carry a
   letter outside both.  Every operator's checker answers as the
   enumeration route does, and so does Borgida's on a compatible pair
   of that shape. *)
let prop_batch_local_matches_enumeration =
  let tv = letters 4 and pv = List.filteri (fun i _ -> i >= 2) (letters 5) in
  let ns = Interp.subsets (letters 6) in
  let as_enumeration op t p =
    let r = MB.revise op t p in
    check_all op (Kb.make t) p ns = List.map (Revision.Result.model_check r) ns
  in
  qtest "one checker = enumeration, P partly outside V(T)" ~count:30
    (arb_pair (arb_sat_formula tv) (arb_sat_formula pv))
    (fun (t, p) ->
      let pc = compatible_widening tv pv t p in
      List.for_all (fun op -> as_enumeration op t p) MB.all
      && Compact.Measure.compatible (Compact.Measure.create (Kb.make t) pc)
      && as_enumeration MB.Borgida t pc)

(* DESIGN.md §13's bound: a candidate's check is local to V(P), so on
   the witness loop's operators it adds at most 2^|V(P)| to
   [check.cegar_iters] however many letters T has, here with T over six
   letters and P over three, one of them outside V(T). *)
let prop_checker_refinements_local =
  let tv = letters 6 in
  let pv = List.filteri (fun i _ -> i >= 4) (letters 7) in
  let ns = Interp.subsets (letters 7) in
  let iters = Obs.counter "check.cegar_iters" in
  qtest "one candidate <= 2^|V(P)| refinements (Winslett, Forbus, Borgida)"
    ~count:40
    (arb_pair (arb_sat_formula tv) (arb_sat_formula pv))
    (fun (t, p) ->
      let bound = 1 lsl Var.Set.cardinal (Formula.vars p) in
      List.for_all
        (fun op ->
          let check = Check.checker op (Compact.Measure.create (Kb.make t) p) in
          List.for_all
            (fun n ->
              let before = Obs.value iters in
              ignore (check n);
              Obs.value iters - before <= bound)
            ns)
        pointwise_ops)

(* The measure route answers as the enumeration route does for the
   three operators whose revision is the measure's session under
   assumptions: entailment of a query over V(T) ∪ V(P) and beyond it,
   and model checking by a checker per candidate on the query's
   measure and by one checker over every candidate, with P partly
   outside V(T). *)
let prop_measure_route_matches_model_based =
  let tv = letters 4 and pv = List.filteri (fun i _ -> i >= 2) (letters 5) in
  let x = letters 5 in
  let ns = Interp.subsets x in
  qtest "measure route = Model_based (Dalal, Weber, Satoh), P partly outside V(T)"
    ~count:40
    (arb_triple (arb_sat_formula tv) (arb_sat_formula pv) (arb_formula x))
    (fun (t, p, q) ->
      List.for_all
        (fun op ->
          let r = MB.revise_on op x t p in
          let m = Compact.Measure.create (Kb.make t) p in
          let expected = List.map (Revision.Result.model_check r) ns in
          Check.entails op m q = Revision.Result.entails r q
          && List.for_all2 (fun n e -> Check.checker op m n = e) ns expected
          && check_all op (Kb.make t) p ns = expected)
        [ MB.Dalal; MB.Weber; MB.Satoh ])

(* The entailment test of the three operators that are no measure
   under assumptions answers as the enumeration route does, with P
   partly outside V(T) and queries naming x6, outside V(T) ∪ V(P).
   Each test answers every literal and three random queries in a row
   on one measure, so a query's retired blocks must not bind the
   next. *)
let entails_as_model_based x t p qs =
  List.for_all
    (fun op ->
      let r = MB.revise_on op x t p in
      let ask = Check.entails op (Compact.Measure.create (Kb.make t) p) in
      List.for_all (fun q -> ask q = Revision.Result.entails r q) qs)
    pointwise_ops

let literals x =
  List.concat_map (fun v -> [ Formula.var v; Formula.not_ (Formula.var v) ]) x

let prop_pointwise_entails_matches_model_based =
  let tv = letters 4 and pv = List.filteri (fun i _ -> i >= 2) (letters 5) in
  let x = letters 6 in
  qtest
    "entails = Model_based (Winslett, Forbus, Borgida), q past V(T) ∪ V(P)"
    ~count:80
    (arb_triple (arb_sat_formula tv) (arb_sat_formula pv)
       (QCheck.list_of_size (QCheck.Gen.return 3) (arb_formula x)))
    (fun (t, p, qs) -> entails_as_model_based x t p (qs @ literals x))

(* Every operator's entailment test answers as the enumeration route
   does over 80 queries on one measure, its record of models of T * P
   running past its capacity.  T is over x1..x5 and P over x4..x6; x7
   is outside V(T) ∪ V(P).  An add is ¬(m ∧ x7) for a model m of T * P
   over x1..x6, in turn: the record reads x7 false, so no recorded model
   falsifies it, and the solver's model joins the record, read on
   x1..x6.  A check is P, entailed, or a random query over x1..x7.
   The stream is 29 adds, 4 checks, 31 adds and then an add and a check
   in turn: the last checks follow the record's replacement of its
   oldest models. *)
let prop_recorded_entails_matches_model_based =
  let x = letters 7 in
  let tv = List.filteri (fun i _ -> i < 5) x
  and pv = List.filteri (fun i _ -> i >= 3 && i < 6) x in
  let x6 = List.filteri (fun i _ -> i < 6) x and x7 = List.nth x 6 in
  let gen st =
    let rec sat vars =
      let f = Gen.formula st ~vars ~depth:2 in
      if Semantics.is_sat f then f else sat vars
    in
    let t = sat tv and p = sat pv in
    (t, p, List.init 20 (fun _ -> Gen.formula st ~vars:x ~depth:2))
  in
  let print (t, p, _) = Formula.to_string t ^ " * " ^ Formula.to_string p in
  qtest "recorded entails = Model_based (all ops), past the record's capacity"
    ~count:30 (QCheck.make ~print gen)
    (fun (t, p, randoms) ->
      List.for_all
        (fun op ->
          let r = MB.revise_on op x t p in
          let ms =
            Array.of_list
              (List.sort_uniq Var.Set.compare
                 (List.map (Interp.restrict (Var.set_of_list x6))
                    (Revision.Result.models r)))
          in
          let add i =
            let m = Interp.minterm x6 ms.(i mod Array.length ms) in
            Formula.not_ (Formula.and_ [ m; Formula.var x7 ])
          in
          let check i = if i mod 2 = 0 then p else List.nth randoms (i / 2) in
          let stream =
            List.init 29 add
            @ List.init 4 check
            @ List.init 31 (fun i -> add (29 + i))
            @ List.concat (List.init 8 (fun i -> [ add (60 + i); check (4 + i) ]))
          in
          let ask = Check.entails op (Compact.Measure.create (Kb.make t) p) in
          List.for_all (fun q -> ask q = Revision.Result.entails r q) stream)
        MB.all)

(* The query loop's masks span V(P) and its copies, which the packed
   alphabet orders by interning: here every copy is interned before
   the letter it copies, in reverse, so the copies sort first and in
   the opposite order.  The entailment tests still answer as the
   enumeration route does on 40 fixed-seed pairs. *)
let test_entails_copies_interned_first () =
  List.iter
    (fun i -> ignore (Var.named (Printf.sprintf "cf%d_m" i)))
    [ 5; 4; 3; 2; 1 ];
  let x = letters ~prefix:"cf" 5 in
  let tv = List.filteri (fun i _ -> i < 4) x
  and pv = List.filteri (fun i _ -> i >= 1) x in
  let st = Random.State.make [| 26 |] in
  let rec sat vars =
    let f = Gen.formula st ~vars ~depth:3 in
    if Semantics.is_sat f then f else sat vars
  in
  for i = 1 to 40 do
    let t = sat tv and p = sat pv in
    let qs = List.init 3 (fun _ -> Gen.formula st ~vars:x ~depth:3) in
    check_bool
      (Printf.sprintf "pair %d: T = %s, P = %s" i (Formula.to_string t)
         (Formula.to_string p))
      true
      (entails_as_model_based x t p (qs @ literals x))
  done

(* δ, Ω and k of the measure agree with the formula-level oracle: one
   satisfiability test per subset of V(P) for "some model of T and some
   model of P differ exactly there", minimized by inclusion.  δ comes
   in the oracle's order.  Each pair is asked as drawn and with T ∧ ¬P
   for T, which P must revise. *)
let measure_matches_formula_oracle t p =
  let m = Compact.Measure.create (Kb.make t) p in
  let vp = Var.Set.elements (Formula.vars p) in
  let xs =
    Var.Set.elements (Var.Set.union (Formula.vars t) (Formula.vars p))
  in
  let ys = List.map (Var.copy_of ~suffix:"__m2") xs in
  let pairs = List.combine xs ys in
  let t_y = Formula.rename pairs t in
  let diff_exactly sset =
    Formula.and_
      (List.map
         (fun (xv, yv) ->
           if Var.Set.mem xv sset then
             Formula.xor (Formula.var xv) (Formula.var yv)
           else Formula.iff (Formula.var xv) (Formula.var yv))
         pairs)
  in
  let diffs =
    List.filter
      (fun sset ->
        Semantics.is_sat (Formula.and_ [ t_y; p; diff_exactly sset ]))
      (Interp.subsets vp)
  in
  let delta = Legacy.min_incl diffs in
  List.equal Var.Set.equal (Compact.Measure.delta m) delta
  && Var.Set.equal (Compact.Measure.omega m)
       (List.fold_left Var.Set.union Var.Set.empty delta)
  && Compact.Measure.k m
     = List.fold_left (fun k s -> min k (Var.Set.cardinal s)) max_int diffs

let prop_measure_matches_formula_oracle =
  let x = letters 10 in
  qtest "delta, omega, k = per-subset formula oracle" ~count:80
    (arb_pair (arb_sat_formula x) (arb_sat_formula ~depth:4 x))
    (fun (t, p) ->
      let revised = Formula.conj2 t (Formula.not_ p) in
      measure_matches_formula_oracle t p
      && ((not (Semantics.is_sat revised))
         || measure_matches_formula_oracle revised p))

(* Past the 2^|V(P)| sweep's reach: T = ~x1 & ... & ~x30 and
   P = x1 | ... | x30, where δ is the 30 singletons and Ω all of V(P).
   Satoh's T * P is the exactly-one assignments, Weber's every model of
   P.  δ costs at most n + 1 solves per member and one to end the walk,
   and the session answers after it. *)
let test_measure_wide_vp () =
  let n = 30 in
  let xs = letters n in
  let t = Formula.and_ (List.map (fun x -> Formula.not_ (Formula.var x)) xs) in
  let p = Formula.or_ (List.map Formula.var xs) in
  let x1 = List.nth xs 0 and x2 = List.nth xs 1 in
  let m = Compact.Measure.create (Kb.make t) p in
  let solves = Obs.counter "sat.solves" in
  let before = Obs.value solves in
  let delta = Compact.Measure.delta m in
  check_bool "solves <= n(n+1) + 1" true
    (Obs.value solves - before <= (n * (n + 1)) + 1);
  check_bool "delta = the singletons" true
    (List.equal Var.Set.equal delta
       (List.sort Var.Set.compare (List.map Var.Set.singleton xs)));
  check_bool "omega = V(P)" true
    (Var.Set.equal (Compact.Measure.omega m) (Var.set_of_list xs));
  let one = Var.Set.singleton x1 and two = Var.set_of_list [ x1; x2 ] in
  let q = f "x1 | x2" and at_most = f "~x1 | ~x2" in
  check_bool "satoh: {x1}" true (Check.checker MB.Satoh m one);
  check_bool "satoh: not {x1, x2}" false (Check.checker MB.Satoh m two);
  check_bool "satoh: not |= x1 | x2" false (Check.entails MB.Satoh m q);
  check_bool "satoh: |= ~x1 | ~x2" true
    (Check.entails MB.Satoh m at_most);
  check_bool "weber: {x1}" true (Check.checker MB.Weber m one);
  check_bool "weber: {x1, x2}" true (Check.checker MB.Weber m two);
  check_bool "weber: not |= x1 | x2" false (Check.entails MB.Weber m q);
  check_bool "weber: not |= ~x1 | ~x2" false
    (Check.entails MB.Weber m at_most);
  check_bool "weber: |= P" true (Check.entails MB.Weber m p)

(* -- retract discipline --------------------------------------------------- *)

let test_session_retract () =
  let ab = [ Var.named "a"; Var.named "b" ] in
  let s = Session.create ~vars:ab () in
  Session.assert_always s (f "a | b");
  check_bool "initial SAT" true (Session.solve s []);
  let alpha = Interp_packed.alphabet ab in
  let sc = Session.new_scope s in
  List.iter
    (fun m ->
      Session.block_mask (module Mask.Packed) s sc alpha
        (Interp_packed.pack alpha (interp_of_string m)))
    [ "a"; "b"; "a,b" ];
  check_bool "UNSAT under the blocking scope" false
    (Session.solve s ~scopes:[ sc ] []);
  check_bool "scope not activated: still SAT" true (Session.solve s []);
  Session.retire s sc;
  check_bool "after retract: SAT" true (Session.solve s [])

(* A copy of a session that has learnt clauses, memoized query
   encodings and a retired scope (a model count's) answers as a fresh
   solver of its KB, with models of the KB and the query.  An
   assertion, new encodings and a live scope added to one copy reach
   neither the source nor a sibling copy, and model counts on each
   stay their own. *)
let prop_session_copy =
  let x = letters 8 in
  let alpha = Interp_packed.alphabet x in
  let arb_cnf3 n =
    QCheck.make ~print:Formula.to_string (fun st ->
        Gen.cnf3 st ~vars:x ~nclauses:n)
  in
  let agrees s kb qs =
    List.for_all
      (fun q ->
        let sat = Session.solve s [ q ] in
        sat = Semantics.is_sat (Formula.conj2 kb q)
        && ((not sat)
           || Interp.sat
                (Semantics.model_on (Session.env s) x)
                (Formula.conj2 kb q)))
      qs
  in
  qtest "copy = fresh solver, independent of its source" ~count:100
    (arb_triple (arb_cnf3 30) (arb_cnf3 4)
       (QCheck.list_of_size (QCheck.Gen.return 6) (arb_formula x)))
    (fun (t, more, qs) ->
      let s = Session.create ~vars:x () in
      Session.assert_always s t;
      (* Half the queries are encoded before the copies, half first on
         [c1]: an encoding memo shared with it would hand [s] and [c2]
         literals of [c1]'s solver. *)
      List.iteri (fun i q -> if i < 3 then ignore (Session.solve s [ q ])) qs;
      let n = Session.count_masks s alpha [] in
      let c1 = Session.copy s and c2 = Session.copy s in
      Session.assert_always c1 more;
      let live = Session.new_scope c1 in
      if Session.solve c1 [] then
        Session.block_mask (module Mask.Wide) c1 live alpha
          (Session.mask_on (module Mask.Wide) c1 alpha);
      let n1 = Semantics.count_sat alpha (Formula.conj2 t more) in
      n = Semantics.count_sat alpha t
      && agrees c1 (Formula.conj2 t more) qs
      && agrees s t qs
      && agrees c2 t qs
      && Session.count_masks c1 alpha [] = n1
      && Session.solve c1 ~scopes:[ live ] [] = (n1 > 1)
      && Session.count_masks c2 alpha [] = n
      && Session.count_masks s alpha [] = n)

(* Two enumerations on one session must not contaminate each other: the
   blocking clauses of the first live in a retired scope. *)
let test_session_models_isolated () =
  let alpha = Interp_packed.alphabet [ Var.named "a"; Var.named "b" ] in
  let s = Session.create ~vars:(Interp_packed.letters alpha) () in
  let masks fm = Session.masks (module Mask.Packed) s alpha (f fm) in
  let m1 = masks "a | b" in
  let m2 = masks "a | b" in
  check_bool "same model set both times" true (Interp_packed.equal_set m1 m2);
  check_int "three models" 3 (Array.length m2);
  check_int "next formula unaffected" 1 (Array.length (masks "a & b"))

(* -- satellite: the CEGAR cap failure names cap, operator, alphabet ------- *)

let test_cegar_cap_message () =
  (* t = a xor b: both witnesses are refuted for n = {a,b}, so any cap
     below 1 must trip on the first refinement regardless of which
     witness the solver produces first. *)
  let t = f "(a & ~b) | (~a & b)" and p = f "a | b" in
  let n = interp_of_string "a,b" in
  match Check.model_check ~cegar_cap:0 MB.Winslett t p n with
  | exception (Check.Cegar_cap_exceeded { cap; opname; nletters } as e) ->
      Alcotest.(check int) "carries cap" 0 cap;
      Alcotest.(check string) "carries op" "winslett" opname;
      Alcotest.(check int) "carries alphabet width" 2 nletters;
      let msg = Printexc.to_string e in
      check_bool "message mentions cap" true (contains_substring msg "cap=0");
      check_bool "message mentions op" true
        (contains_substring msg "op=winslett");
      check_bool "message mentions alphabet" true
        (contains_substring msg "2-letter alphabet")
  | _ -> Alcotest.fail "expected CEGAR cap failure"

(* -- one checker = pointwise ------------------------------------------- *)

(* A checker asked many candidates answers each as {!Check.model_check}
   on a measure of its own does: on a 5-letter pair with every
   candidate, and on a 30-letter conjunction whose P flips two
   letters. *)
let test_checker_pointwise () =
  let t = f "(x1 | x2) & (x3 -> x4 | x5) & (~x1 | x3)" in
  let p = f "(~x2 | x5) & (x1 | x4)" in
  let ns = Interp.subsets (letters 5) in
  let vars30 = letters 30 in
  let t30 = Formula.and_ (List.map Formula.var vars30) in
  let x0 = List.nth vars30 0 and x1 = List.nth vars30 1 in
  let p30 =
    Formula.and_
      [ Formula.not_ (Formula.var x0); Formula.not_ (Formula.var x1) ]
  in
  let full = Var.set_of_list vars30 in
  let ns30 =
    List.map
      (fun drop -> Var.Set.diff full (Var.set_of_list drop))
      [ [ x0; x1 ]; [ x0 ]; [ x1 ]; []; [ x0; x1; List.nth vars30 5 ] ]
  in
  List.iter
    (fun op ->
      List.iter
        (fun (t, p, ns) ->
          check_bool (MB.name op ^ ": one checker = pointwise") true
            (check_all op (Kb.make t) p ns
            = List.map (Check.model_check op t p) ns))
        [ (t, p, ns); (t30, p30, ns30) ])
    MB.all

let () =
  Alcotest.run "session"
    [
      ( "ladder",
        List.init 6 (fun i -> ladder_matches_exa (i + 3))
        @ [ prop_within_monotone; prop_min_distance_matches_exa ] );
      ( "probers",
        [
          prop_dist_to_matches_fresh;
          prop_dist_prober_reusable;
          prop_closer_than_matches_distances;
        ] );
      ( "checkers",
        [
          prop_model_check_matches_fresh;
          prop_batch_matches_fresh;
          prop_batch_local_matches_enumeration;
          prop_checker_refinements_local;
          prop_measure_route_matches_model_based;
          prop_pointwise_entails_matches_model_based;
          prop_recorded_entails_matches_model_based;
          Alcotest.test_case "entails with copies interned first" `Quick
            test_entails_copies_interned_first;
          prop_measure_matches_formula_oracle;
          Alcotest.test_case "delta past 16 letters" `Quick
            test_measure_wide_vp;
        ] );
      ( "work",
        [
          Alcotest.test_case "Dalal sweeps" `Quick test_dalal_work;
          Alcotest.test_case "dist_to sweep" `Quick test_dist_work;
          Alcotest.test_case "Forbus CEGAR" `Quick test_cegar_work;
          Alcotest.test_case "one guard per entry point" `Quick
            test_guard_builds;
          Alcotest.test_case "one session per checker" `Quick
            test_batch_builds;
          Alcotest.test_case "no guard solver" `Quick test_no_guard_solver;
          Alcotest.test_case "per-candidate batch work" `Quick
            test_per_candidate_work;
          Alcotest.test_case "CEGAR local to V(P)" `Quick test_local_work;
          Alcotest.test_case "Weber work at jobs 1 = jobs 4" `Quick
            test_weber_jobs_work;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "retract SAT/UNSAT/SAT" `Quick
            test_session_retract;
          Alcotest.test_case "scoped enumerations isolated" `Quick
            test_session_models_isolated;
          prop_session_copy;
          Alcotest.test_case "CEGAR cap message" `Quick test_cegar_cap_message;
          Alcotest.test_case "one checker = pointwise" `Quick
            test_checker_pointwise;
        ] );
    ]
