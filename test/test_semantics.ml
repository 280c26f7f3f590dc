(* SAT-backed semantics: Tseitin encoding, entailment/equivalence,
   projected model enumeration, CNF conversions, QBF expansion. *)

open Logic
open Helpers

let vars4 = letters 4
let vars5 = letters 5

(* -- is_sat vs brute force ------------------------------------------------ *)

let prop_sat_agrees_with_brute_force =
  qtest "is_sat = brute force" ~count:600 (arb_formula ~depth:4 vars4)
    (fun fm -> Semantics.is_sat fm = (Models.enumerate vars4 fm <> []))

let prop_valid_agrees =
  qtest "is_valid = all models" ~count:400 (arb_formula ~depth:4 vars4)
    (fun fm ->
      Semantics.is_valid fm
      = (List.length (Models.enumerate vars4 fm) = 1 lsl 4))

let prop_entails_agrees =
  qtest "entails = model containment" ~count:400
    (arb_pair (arb_formula vars4) (arb_formula vars4))
    (fun (a, b) -> Semantics.entails a b = Models.entails_on vars4 a b)

let prop_equiv_agrees =
  qtest "equiv = same model sets" ~count:400
    (arb_pair (arb_formula vars4) (arb_formula vars4))
    (fun (a, b) -> Semantics.equiv a b = Models.equivalent_on vars4 a b)

(* -- model enumeration ------------------------------------------------------ *)

let prop_models_sat_complete =
  qtest "models_sat = brute-force enumeration" ~count:300
    (arb_formula ~depth:4 vars4) (fun fm ->
      same_models (Semantics.models_sat vars4 fm) (Models.enumerate vars4 fm))

let test_models_sat_projection () =
  (* project (a | b) & w onto {a, b}: w is existential *)
  let fm = f "(a | b) & w" in
  let proj = Semantics.models_sat [ Var.named "a"; Var.named "b" ] fm in
  check_int "three projections" 3 (List.length proj)

let test_models_sat_cap () =
  match Semantics.models_sat ~cap:2 vars4 Formula.top with
  | exception Semantics.Enumeration_cap_exceeded { enumerator; cap } ->
      Alcotest.(check string) "names the enumerator" "models_sat" enumerator;
      Alcotest.(check int) "carries the cap" 2 cap
  | _ -> Alcotest.fail "cap should have been hit"

let test_models_empty_alphabet () =
  check_int "sat formula, empty alphabet" 1
    (List.length (Semantics.models_sat [] (f "a | b")));
  check_int "unsat formula, empty alphabet" 0
    (List.length (Semantics.models_sat [] (f "a & ~a")))

let prop_query_equivalent_reflexive =
  qtest "query_equivalent reflexive" ~count:200 (arb_formula vars4) (fun fm ->
      Semantics.query_equivalent vars4 fm fm)

let test_query_equivalent_new_letters () =
  (* b fresh: a ∧ (b ∨ ¬b holds trivially) — a & b is NOT query-equivalent
     to a over {a}... it is: both entail exactly the consequences of a over
     {a}?  No: models of a&b project to {a}: {a}; models of a: {a},{a,b}->{a}.
     Both project to {{a}}.  Equivalent over {a}. *)
  check_bool "a & b ~q a over {a}" true
    (Semantics.query_equivalent [ Var.named "a" ] (f "a & b") (f "a"));
  check_bool "a | b not ~q a over {a}" false
    (Semantics.query_equivalent [ Var.named "a" ] (f "a | b") (f "a"))

(* -- incremental env -------------------------------------------------------- *)

let test_env_incremental () =
  let env = Semantics.create () in
  Semantics.assert_formula env (f "a -> b");
  check_bool "sat" true (Semantics.solve env);
  let la = Semantics.lit_of_var env (Var.named "a") in
  check_bool "sat under a" true (Semantics.solve ~assumptions:[ la ] env);
  Semantics.assert_formula env (f "~b");
  check_bool "unsat under a after ~b" false
    (Semantics.solve ~assumptions:[ la ] env);
  check_bool "still sat without assumption" true (Semantics.solve env)

(* -- CNF --------------------------------------------------------------------- *)

let prop_naive_cnf_equivalent =
  qtest "naive CNF equivalence" ~count:300 (arb_formula ~depth:3 vars4)
    (fun fm ->
      Models.equivalent_on vars4 fm (Cnf.to_formula (Cnf.of_formula_naive fm)))

let prop_tseitin_projection =
  qtest "tseitin projects to same models" ~count:300
    (arb_formula ~depth:3 vars4) (fun fm ->
      let clauses, _defs = Cnf.tseitin fm in
      same_models
        (Semantics.models_sat vars4 (Cnf.to_formula clauses))
        (Models.enumerate vars4 fm))

let test_dimacs_export () =
  let clauses, _ = Cnf.tseitin (f "(a | b) & ~c") in
  let text = Cnf.to_dimacs clauses in
  let nv, parsed = Satsolver.Dimacs.parse_string text in
  check_bool "nonempty" true (nv > 0 && parsed <> []);
  let s = Satsolver.Solver.create () in
  Satsolver.Dimacs.load s parsed;
  check_bool "equisatisfiable" true (Satsolver.Solver.solve s)

(* -- QBF ----------------------------------------------------------------------- *)

let test_qbf_forall () =
  let a = Var.named "qa" and b = Var.named "qb" in
  let q = Qbf.forall [ a ] (Qbf.prop (Formula.or_ [ Formula.var a; Formula.var b ])) in
  check_formula_equiv "forall a. a|b = b" (Formula.var b) (Qbf.expand q)

let test_qbf_exists () =
  let a = Var.named "qa" and b = Var.named "qb" in
  let q =
    Qbf.exists [ a ] (Qbf.prop (Formula.conj2 (Formula.var a) (Formula.var b)))
  in
  check_formula_equiv "exists a. a&b = b" (Formula.var b) (Qbf.expand q)

let test_qbf_nested () =
  let a = Var.named "qa" and b = Var.named "qb" in
  (* forall a. exists b. a == b  — valid *)
  let q =
    Qbf.forall [ a ]
      (Qbf.exists [ b ] (Qbf.prop (Formula.iff (Formula.var a) (Formula.var b))))
  in
  check_bool "valid" true (Semantics.is_valid (Qbf.expand q));
  (* exists b. forall a. a == b — unsatisfiable *)
  let q2 =
    Qbf.exists [ b ]
      (Qbf.forall [ a ] (Qbf.prop (Formula.iff (Formula.var a) (Formula.var b))))
  in
  check_bool "unsat" false (Semantics.is_sat (Qbf.expand q2))

let test_qbf_free_vars () =
  let a = Var.named "qa" and b = Var.named "qb" in
  let q = Qbf.forall [ a ] (Qbf.prop (f "qa | qb")) in
  check_int "free vars" 1 (Var.Set.cardinal (Qbf.free_vars q));
  ignore b

let prop_qbf_forall_is_conjunction =
  qtest "forall x. F = F[x/T] & F[x/F]" ~count:200 (arb_formula vars4)
    (fun fm ->
      let x = List.hd vars4 in
      let expanded = Qbf.expand (Qbf.forall [ x ] (Qbf.prop fm)) in
      let manual =
        Formula.conj2
          (Formula.assign_vars (Var.Map.singleton x true) fm)
          (Formula.assign_vars (Var.Map.singleton x false) fm)
      in
      Models.equivalent_on vars4 expanded manual)

let test_constants_and_empty () =
  check_bool "true sat" true (Semantics.is_sat Formula.top);
  check_bool "false unsat" false (Semantics.is_sat Formula.bot);
  check_bool "true valid" true (Semantics.is_valid Formula.top);
  check_bool "false entails anything" true (Semantics.entails Formula.bot (f "a"));
  check_bool "anything entails true" true (Semantics.entails (f "a") Formula.top);
  check_int "no models of false" 0
    (List.length (Semantics.models_sat vars4 Formula.bot))

let test_env_constants () =
  let env = Semantics.create () in
  Semantics.assert_formula env Formula.top;
  check_bool "after asserting true" true (Semantics.solve env);
  Semantics.assert_formula env Formula.bot;
  check_bool "after asserting false" false (Semantics.solve env)

let test_encode_memoized () =
  (* encoding the same subformula twice must return the same literal *)
  let env = Semantics.create () in
  let g = f "(a | b) & c" in
  let l1 = Semantics.encode env g in
  let l2 = Semantics.encode env g in
  check_bool "memoized" true (l1 = l2)

(* -- clause-shaped conjuncts ----------------------------------------------- *)

(* Conjunctions mixing clauses with arbitrary members.  Clause letters
   are drawn with replacement, so duplicate literals and [x | ~x]
   tautologies occur, and a single literal is its own clause
   ([Formula.t] is private: no one-literal [Or] can be built). *)
let arb_mixed_cnf vars =
  let gen st =
    let letter () = List.nth vars (Random.State.int st (List.length vars)) in
    let lit () = Formula.lit (Random.State.bool st) (letter ()) in
    let member () =
      match Random.State.int st 4 with
      | 0 -> lit ()
      | 1 ->
          let x = Formula.var (letter ()) in
          Formula.or_ [ x; lit (); Formula.not_ x ]
      | 2 ->
          Formula.or_ (List.init (2 + Random.State.int st 4) (fun _ -> lit ()))
      | _ -> Gen.formula st ~vars ~depth:2
    in
    Formula.and_ (List.init (1 + Random.State.int st 6) (fun _ -> member ()))
  in
  QCheck.make ~print:Formula.to_string gen

let prop_clause_conjuncts =
  qtest "asserted clause conjuncts = enumeration" ~count:400
    (arb_pair (arb_mixed_cnf vars4) (arb_formula vars4))
    (fun (fm, q) ->
      let s = Semantics.Session.create () in
      Semantics.Session.assert_always s fm;
      Semantics.Session.solve s [] = (Models.enumerate vars4 fm <> [])
      && Semantics.Session.entails s q = Models.entails_on vars4 fm q)

let test_clause_is_one_clause () =
  let clauses = Revkb_obs.Obs.counter "sem.encode.clauses" in
  let env = Semantics.create () in
  let c0 = Revkb_obs.Obs.value clauses in
  Semantics.assert_formula env (f "(a | ~b | a) & (c | ~c)");
  check_int "one solver clause per clause, no auxiliary" 2
    (Revkb_obs.Obs.value clauses - c0);
  check_bool "still satisfiable" true (Semantics.solve env)

(* -- Hamming / EXA (SAT-level sanity; exhaustive check in structures) ------- *)

let test_min_distance () =
  let k t p =
    Compact.Measure.k (Compact.Measure.create (Kb.make (f t)) (f p))
  in
  check_bool "distance 2" true (k "a & b & c" "~a & ~b" = 2);
  check_bool "distance 0 when consistent" true (k "a | b" "a" = 0);
  check_bool "unsat P" true
    (match k "a" "b & ~b" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "semantics"
    [
      ( "decision procedures",
        [
          prop_sat_agrees_with_brute_force;
          prop_valid_agrees;
          prop_entails_agrees;
          prop_equiv_agrees;
        ] );
      ( "model enumeration",
        [
          prop_models_sat_complete;
          Alcotest.test_case "projection" `Quick test_models_sat_projection;
          Alcotest.test_case "cap is loud" `Quick test_models_sat_cap;
          Alcotest.test_case "empty alphabet" `Quick test_models_empty_alphabet;
          prop_query_equivalent_reflexive;
          Alcotest.test_case "query equivalence with new letters" `Quick
            test_query_equivalent_new_letters;
        ] );
      ( "incremental",
        [ Alcotest.test_case "env reuse" `Quick test_env_incremental ] );
      ( "cnf",
        [
          prop_naive_cnf_equivalent;
          prop_tseitin_projection;
          Alcotest.test_case "dimacs export" `Quick test_dimacs_export;
        ] );
      ( "qbf",
        [
          Alcotest.test_case "forall" `Quick test_qbf_forall;
          Alcotest.test_case "exists" `Quick test_qbf_exists;
          Alcotest.test_case "nested alternation" `Quick test_qbf_nested;
          Alcotest.test_case "free vars" `Quick test_qbf_free_vars;
          prop_qbf_forall_is_conjunction;
        ] );
      ( "constants and env",
        [
          Alcotest.test_case "constants" `Quick test_constants_and_empty;
          Alcotest.test_case "env with constants" `Quick test_env_constants;
          Alcotest.test_case "encode memoized" `Quick test_encode_memoized;
          prop_clause_conjuncts;
          Alcotest.test_case "a clause is one clause" `Quick
            test_clause_is_one_clause;
        ] );
      ( "distance",
        [ Alcotest.test_case "min distance" `Quick test_min_distance ] );
    ]

(* keep vars5 referenced to avoid warnings if unused in some configs *)
let _ = vars5
