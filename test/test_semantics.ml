(* SAT-backed semantics: Tseitin encoding, entailment/equivalence,
   projected model enumeration, QBF expansion. *)

open Logic
open Helpers

let vars4 = letters 4
let vars5 = letters 5

(* -- is_sat vs brute force ------------------------------------------------ *)

let prop_sat_agrees_with_brute_force =
  qtest "is_sat = brute force" ~count:600 (arb_formula ~depth:4 vars4)
    (fun fm -> Semantics.is_sat fm = (Models.enumerate vars4 fm <> []))

let prop_entails_agrees =
  qtest "entails = model containment" ~count:400
    (arb_pair (arb_formula vars4) (arb_formula vars4))
    (fun (a, b) -> Semantics.entails a b = Models.entails_on vars4 a b)

let prop_valid_agrees =
  qtest "entails from top = all models" ~count:400 (arb_formula ~depth:4 vars4)
    (fun fm ->
      Semantics.entails Formula.top fm
      = (List.length (Models.enumerate vars4 fm) = 1 lsl 4))

(* The model set of [fm] over [vars], as a revision result. *)
let result_of vars fm = Revision.Result.make vars (Models.enumerate vars fm)

let prop_logically_equivalent_agrees =
  qtest "Verify.logically_equivalent = same model sets" ~count:400
    (arb_pair (arb_formula vars4) (arb_formula vars4))
    (fun (a, b) ->
      Compact.Verify.logically_equivalent (result_of vars4 a) b
      = equivalent_on vars4 a b)

(* -- model enumeration ------------------------------------------------------ *)

let prop_masks_sat_complete =
  qtest "masks_sat = brute-force enumeration" ~count:300
    (arb_formula ~depth:4 vars4) (fun fm ->
      same_models (models_sat vars4 fm) (Models.enumerate vars4 fm))

let test_masks_sat_projection () =
  (* project (a | b) & w onto {a, b}: w is existential *)
  let fm = f "(a | b) & w" in
  let proj = models_sat [ Var.named "a"; Var.named "b" ] fm in
  check_int "three projections" 3 (List.length proj)

let test_masks_sat_cap () =
  match
    Semantics.masks_sat (module Mask.Packed) ~cap:2
      (Interp_packed.alphabet vars4) Formula.top
  with
  | exception Semantics.Enumeration_cap_exceeded { enumerator; cap } ->
      Alcotest.(check string) "names the enumerator" "masks_sat" enumerator;
      Alcotest.(check int) "carries the cap" 2 cap
  | _ -> Alcotest.fail "cap should have been hit"

let test_models_empty_alphabet () =
  check_int "sat formula, empty alphabet" 1
    (List.length (models_sat [] (f "a | b")));
  check_int "unsat formula, empty alphabet" 0
    (List.length (models_sat [] (f "a & ~a")))

let prop_query_equivalent_reflexive =
  qtest "query_equivalent reflexive" ~count:200 (arb_formula vars4) (fun fm ->
      Compact.Verify.query_equivalent (result_of vars4 fm) fm)

let test_query_equivalent_new_letters () =
  (* Over {a}, the models of a & b and of a both project to {{a}}; those
     of a | b also project to {}. *)
  let over_a = result_of [ Var.named "a" ] (f "a") in
  check_bool "a & b ~q a over {a}" true
    (Compact.Verify.query_equivalent over_a (f "a & b"));
  check_bool "a | b not ~q a over {a}" false
    (Compact.Verify.query_equivalent over_a (f "a | b"));
  check_bool "a & b not logically equivalent to a" false
    (Compact.Verify.logically_equivalent over_a (f "a & b"))

(* The env-level walk [Fresh] runs, apart from the mask walk: one
   encoding, then solve, read the projection, block it. *)
let prop_encode_projection =
  qtest "encode/model_on/block walk = brute force" ~count:300
    (arb_formula ~depth:3 vars4) (fun fm ->
      let env = Semantics.create () in
      List.iter (fun x -> ignore (Semantics.lit_of_var env x)) vars4;
      let l = Semantics.encode env fm in
      let rec walk acc =
        if Semantics.solve ~assumptions:[ l ] env then begin
          let m = Semantics.model_on env vars4 in
          Semantics.block env vars4 m;
          walk (m :: acc)
        end
        else acc
      in
      let ms = walk [] in
      List.length ms = List.length (List.sort_uniq Var.Set.compare ms)
      && same_models ms (Models.enumerate vars4 fm))

let prop_count_masks =
  qtest "Session.count_masks = brute-force count" ~count:200
    (arb_pair (arb_formula ~depth:4 vars4) (arb_formula vars4))
    (fun (fm, q) ->
      let alpha = Interp_packed.alphabet vars4 in
      let s = Semantics.Session.create ~vars:vars4 () in
      Semantics.Session.assert_always s fm;
      Semantics.Session.count_masks s alpha [] = Models.count vars4 fm
      && Semantics.Session.count_masks s alpha [ q ]
         = Models.count vars4 (Formula.conj2 fm q)
      (* the first walk's blocking clauses bind nothing later *)
      && Semantics.Session.count_masks s alpha [] = Models.count vars4 fm)

(* A scope [with_retractable] hands out binds queries that activate it
   while [k] runs, and is retired when [k] returns or raises: activating
   a retired scope is unsatisfiable whatever it holds. *)
let test_with_retractable () =
  let module S = Semantics.Session in
  let ab = [ Var.named "a"; Var.named "b" ] in
  let alpha = Interp_packed.alphabet ab in
  let s = S.create ~vars:ab () in
  S.assert_always s (f "a | b");
  let block sc m =
    S.block_mask (module Mask.Packed) s sc alpha
      (Interp_packed.pack alpha (interp_of_string m))
  in
  let inside =
    S.with_retractable s (fun sc ->
        block sc "a";
        let one_left = S.solve s ~scopes:[ sc ] [ f "~a" ] in
        block sc "b";
        (sc, one_left, S.solve s ~scopes:[ sc ] [ f "~a" ]))
  in
  let sc, one_left, none_left = inside in
  check_bool "scope active: {b} still a model" true one_left;
  check_bool "scope active: ~a blocked out" false none_left;
  check_bool "without the scope: unconstrained" true (S.solve s [ f "~a" ]);
  check_bool "retired on return" false (S.solve s ~scopes:[ sc ] []);
  let seen = ref None in
  (match
     S.with_retractable s (fun sc ->
         seen := Some sc;
         check_bool "fresh scope is live" true (S.solve s ~scopes:[ sc ] []);
         raise Exit)
   with
  | exception Exit -> ()
  | () -> Alcotest.fail "exception swallowed");
  match !seen with
  | Some sc -> check_bool "retired on raise" false (S.solve s ~scopes:[ sc ] [])
  | None -> Alcotest.fail "continuation never ran"

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

(* -- QBF ----------------------------------------------------------------------- *)

let test_qbf_forall () =
  let a = Var.named "qa" and b = Var.named "qb" in
  let q = Qbf.forall [ a ] (Qbf.prop (Formula.or_ [ Formula.var a; Formula.var b ])) in
  check_formula_equiv "forall a. a|b = b" (Formula.var b) (Qbf.expand q)

let test_qbf_exists () =
  let a = Var.named "qa" and b = Var.named "qb" in
  let q =
    Qbf.Exists ([ a ], Qbf.prop (Formula.conj2 (Formula.var a) (Formula.var b)))
  in
  check_formula_equiv "exists a. a&b = b" (Formula.var b) (Qbf.expand q)

let test_qbf_nested () =
  let a = Var.named "qa" and b = Var.named "qb" in
  (* forall a. exists b. a == b  — valid *)
  let q =
    Qbf.forall [ a ]
      (Qbf.Exists ([ b ], Qbf.prop (Formula.iff (Formula.var a) (Formula.var b))))
  in
  check_bool "valid" true (Semantics.entails Formula.top (Qbf.expand q));
  (* exists b. forall a. a == b — unsatisfiable *)
  let q2 =
    Qbf.Exists
      ([ b ], Qbf.forall [ a ] (Qbf.prop (Formula.iff (Formula.var a) (Formula.var b))))
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
      equivalent_on vars4 expanded manual)

let test_constants_and_empty () =
  check_bool "true sat" true (Semantics.is_sat Formula.top);
  check_bool "false unsat" false (Semantics.is_sat Formula.bot);
  check_bool "false entails anything" true (Semantics.entails Formula.bot (f "a"));
  check_bool "anything entails true" true (Semantics.entails (f "a") Formula.top);
  check_int "no models of false" 0
    (List.length (models_sat vars4 Formula.bot))

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
          prop_entails_agrees;
          prop_valid_agrees;
          prop_logically_equivalent_agrees;
        ] );
      ( "model enumeration",
        [
          prop_masks_sat_complete;
          Alcotest.test_case "projection" `Quick test_masks_sat_projection;
          Alcotest.test_case "cap is loud" `Quick test_masks_sat_cap;
          Alcotest.test_case "empty alphabet" `Quick test_models_empty_alphabet;
          prop_query_equivalent_reflexive;
          Alcotest.test_case "query equivalence with new letters" `Quick
            test_query_equivalent_new_letters;
          prop_encode_projection;
          prop_count_masks;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "env reuse" `Quick test_env_incremental;
          Alcotest.test_case "with_retractable retires its scope" `Quick
            test_with_retractable;
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
