(* Incremental SAT sessions: differential tests of the shared
   cardinality ladder against the per-k EXA encodings, the solver work
   sessions save over fresh solvers, the retract (activation-literal)
   discipline, and determinism of the checkers across job counts. *)

open Logic
open Helpers
open Revkb_oracle
module Session = Semantics.Session
module Ladder = Semantics.Ladder
module Check = Compact.Check
module MB = Revision.Model_based
module Pool = Revkb_parallel.Pool
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
          let exa = upto (fun j -> fst (Hamming.exa j x ys)) in
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
  qtest "Dist prober = dist_to on every reference" ~count:80
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
      let pv = Ladder.against (Session.env s) x in
      let assume = Ladder.pin pv n and lad = Ladder.ladder pv in
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

(* Each public entry point decides T and P once: the measuring
   operators take the guard from their Measure session, the others run
   one plain check per formula.  A 3-CNF T goes past the clausal fast
   path to the solver; a Horn P does not.  So one batch check builds at
   most two solvers, and so does one entailment, except that Borgida's
   also decides T ∧ P. *)
let test_guard_builds () =
  let t =
    f
      "(x1 | x2 | ~x3) & (~x1 | ~x2 | x3) & (x2 | x3 | ~x4) & (~x2 | ~x3 | \
       x4) & (x1 | x4 | x5) & (~x1 | ~x4 | ~x5)"
  in
  let p = f "x1 & (~x1 | ~x2) & (~x3 | x4) & ~x5" in
  let q = f "x3 -> x4" in
  let ns = Interp.subsets (letters 5) in
  Pool.with_jobs 1 (fun () ->
      List.iter
        (fun op ->
          let name = MB.name op in
          let answers, builds, _ =
            work (fun () -> Check.model_check_batch op (Kb.make t) p ns)
          in
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
        MB.all)

(* The per-candidate step of a batch pays only for the candidate.  A
   Dalal batch makes the measure's k + 1 threshold probes, then one
   probe per P-model candidate (none for the others), farther ones
   included.  A Forbus candidate costs its refinements and its scope,
   never a cardinality ladder of its own: the chunk builds one. *)
let test_per_candidate_work () =
  let count c = Obs.value (Obs.counter c) in
  Pool.with_jobs 1 (fun () ->
      let x = letters 5 in
      let t = f "x1 & x2 & x3" and p = f "~x1 | (~x2 & ~x3)" in
      let ns = Interp.subsets x in
      let k = Compact.Measure.k (Compact.Measure.create (Kb.make t) p) in
      let on_p = List.filter (fun n -> Interp.sat n p) ns in
      check_bool "some P-model lies farther than k" true
        (List.exists (fun n -> Fresh.dist_to t n x > Some k) on_p);
      let p0 = count "sem.ladder.probes" in
      let answers = Check.model_check_batch MB.Dalal (Kb.make t) p ns in
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
        ignore (Ladder.against (Session.env s) vars);
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
        ignore (Check.model_check_batch MB.Forbus (Kb.make t) p (first j ns));
        count "sem.encode.clauses" - c0
      in
      List.iter
        (fun j ->
          let extra = clauses (j + 1) - clauses j in
          check_bool
            (Printf.sprintf "Forbus candidate %d adds %d clauses < %d (a ladder)"
               (j + 1) extra ladder)
            true (extra < ladder))
        [ 1; 2; 3 ])

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
    ignore (Ladder.against (Session.env s) vars);
    count "sem.encode.clauses" - c0
  in
  Pool.with_jobs 1 (fun () ->
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
          let answers = Check.model_check_batch op (Kb.make t) p ns in
          let clauses = count "sem.encode.clauses" - c0 in
          check_bool (name ^ ": batch = one by one") true
            (answers = List.map fst each);
          if op = MB.Forbus then
            check_bool
              (Printf.sprintf "Forbus batch encodes %d clauses < %d (a ladder)"
                 clauses ladder)
              true (clauses < ladder))
        [ MB.Winslett; MB.Forbus ])

(* -- session-backed checkers vs the fresh-solver oracle ------------------- *)

let prop_model_check_matches_fresh =
  let x = letters 5 in
  qtest "model_check = Fresh.model_check (all ops)" ~count:60
    (arb_triple (arb_sat_formula x) (arb_sat_formula x) (arb_interp x))
    (fun (t, p, n) ->
      List.for_all
        (fun op ->
          Check.model_check op t p n = Fresh.model_check op t p n)
        MB.all)

(* One batch over every candidate of the alphabet runs in one session,
   so the state a chunk shares (Forbus's ladder, Borgida's consistency
   bit, the retired witness and probe scopes) must never carry from one
   candidate to the next: each answer is the fresh solver's. *)
let prop_batch_matches_fresh =
  let x = letters 5 in
  let ns = Interp.subsets x in
  qtest "model_check_batch over 2^5 = Fresh.model_check (all ops)" ~count:40
    (arb_pair (arb_sat_formula x) (arb_sat_formula x))
    (fun (t, p) ->
      Pool.with_jobs 1 (fun () ->
          List.for_all
            (fun op ->
              Check.model_check_batch op (Kb.make t) p ns
              = List.map (Fresh.model_check op t p) ns)
            MB.all))

(* Proposition 2.1's locality on the alphabet's edges: P names a letter
   outside V(T) and leaves some of V(T) out, and the candidates carry a
   letter outside both.  Every operator's batch answers as the
   enumeration route does, at one and at four worker domains. *)
let prop_batch_local_matches_enumeration =
  let tv = letters 4 and pv = List.filteri (fun i _ -> i >= 2) (letters 5) in
  let ns = Interp.subsets (letters 6) in
  qtest "model_check_batch = enumeration, P partly outside V(T)" ~count:30
    (arb_pair (arb_sat_formula tv) (arb_sat_formula pv))
    (fun (t, p) ->
      List.for_all
        (fun op ->
          let r = MB.revise op t p in
          let expected = List.map (Revision.Result.model_check r) ns in
          List.for_all
            (fun jobs ->
              Pool.with_jobs jobs (fun () ->
                  Check.model_check_batch op (Kb.make t) p ns = expected))
            [ 1; 4 ])
        MB.all)

(* The measure's realizable-difference sweep agrees with the
   formula-level per-subset oracle. *)
let prop_measure_matches_formula_oracle =
  let x = letters 4 in
  qtest "realizable_diffs = per-subset formula oracle" ~count:80
    (arb_pair (arb_sat_formula x) (arb_sat_formula x))
    (fun (t, p) ->
      let diffs =
        Compact.Measure.diffs (Compact.Measure.create (Kb.make t) p)
      in
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
      let oracle =
        List.filter
          (fun sset ->
            Semantics.is_sat (Formula.and_ [ t_y; p; diff_exactly sset ]))
          (Interp.subsets vp)
      in
      same_models diffs oracle)

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

(* -- bit-identical across job counts -------------------------------------- *)

let test_jobs_deterministic () =
  let t = f "(x1 | x2) & (x3 -> x4 | x5) & (~x1 | x3)" in
  let p = f "(~x2 | x5) & (x1 | x4)" in
  let ns = Interp.subsets (letters 5) in
  List.iter
    (fun op ->
      let batch jobs =
        Pool.with_jobs jobs (fun () ->
            Check.model_check_batch op (Kb.make t) p ns)
      in
      let r1 = batch 1 and r4 = batch 4 in
      check_bool (MB.name op ^ ": jobs=1 equals jobs=4") true (r1 = r4))
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
          prop_measure_matches_formula_oracle;
        ] );
      ( "work",
        [
          Alcotest.test_case "Dalal sweeps" `Quick test_dalal_work;
          Alcotest.test_case "dist_to sweep" `Quick test_dist_work;
          Alcotest.test_case "Forbus CEGAR" `Quick test_cegar_work;
          Alcotest.test_case "one guard per entry point" `Quick
            test_guard_builds;
          Alcotest.test_case "per-candidate batch work" `Quick
            test_per_candidate_work;
          Alcotest.test_case "CEGAR local to V(P)" `Quick test_local_work;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "retract SAT/UNSAT/SAT" `Quick
            test_session_retract;
          Alcotest.test_case "scoped enumerations isolated" `Quick
            test_session_models_isolated;
          Alcotest.test_case "CEGAR cap message" `Quick test_cegar_cap_message;
          Alcotest.test_case "jobs=1 = jobs=4" `Quick test_jobs_deterministic;
        ] );
    ]
