(* Static analyzer: differential certification against model enumeration
   and the CDCL solver.

   The analysis library promises results *without* enumerating models, so
   every promise is checked here against the thing it avoids: simplifier
   rules against exhaustive model comparison, linear-time deciders against
   the CDCL oracle [Semantics.is_sat_cdcl], syntactic fragment membership
   against the brute-force definitions. *)

open Logic
open Helpers
open Revkb_analysis

let vars4 = letters 4
let vars8 = letters 8

(* -- simplifier: equivalence-preserving rules ----------------------------- *)

(* Each rule must preserve the model set over the formula's own alphabet
   (checked exhaustively: 2^4 and 2^8 interpretations). *)
let rule_preserves_equivalence name rule =
  [
    qtest ~count:400
      (Printf.sprintf "%s preserves equivalence (4 letters)" name)
      (arb_formula ~depth:4 vars4)
      (fun fm -> Models.equivalent_on vars4 fm (rule fm));
    qtest ~count:150
      (Printf.sprintf "%s preserves equivalence (8 letters)" name)
      (arb_formula ~depth:5 vars8)
      (fun fm -> Models.equivalent_on vars8 fm (rule fm));
  ]

let simplifier_equivalence_tests =
  List.concat_map
    (fun (name, rule) -> rule_preserves_equivalence name rule)
    [
      ("constant_fold", Simplifier.constant_fold);
      ("contract", Simplifier.contract);
      ("unit_propagate", Simplifier.unit_propagate);
      ("subsume", Simplifier.subsume);
      ("simplify", Simplifier.simplify);
    ]

let prop_simplify_never_grows =
  qtest ~count:400 "simplify never grows" (arb_formula ~depth:4 vars4)
    (fun fm -> Formula.size (Simplifier.simplify fm) <= Formula.size fm)

let test_simplify_examples () =
  let s src = Simplifier.simplify (f src) in
  check_bool "idempotence" true (Formula.equal (s "a & a") (f "a"));
  check_bool "complement" true (Formula.equal (s "a & ~a & b") Formula.bot);
  check_bool "absorption" true (Formula.equal (s "a & (a | b)") (f "a"));
  check_bool "unit propagation" true
    (Formula.equal (s "a & (~a | b)") (f "a & b"));
  check_bool "subsumption" true
    (Formula.equal (s "(a | b | c) & (a | b)") (f "a | b"))

(* [pure_literal] and [presat] only promise equisatisfiability — checked
   against the CDCL oracle, never the fast path under test. *)
let sat_only_tests =
  List.map
    (fun (name, rule) ->
      qtest ~count:300
        (Printf.sprintf "%s preserves satisfiability" name)
        (arb_formula ~depth:4 vars4)
        (fun fm -> Semantics.is_sat_cdcl (rule fm) = Semantics.is_sat_cdcl fm))
    [ ("pure_literal", Simplifier.pure_literal); ("presat", Simplifier.presat) ]

(* -- clausal deciders vs the CDCL oracle ---------------------------------- *)

let formula_of_cnf cnf =
  Formula.and_
    (List.map
       (fun c -> Formula.or_ (List.map (fun (s, x) -> Formula.lit s x) c))
       cnf)

(* Random CNF in a given fragment; clauses are never empty. *)
let arb_cnf ?(nvars = 5) shape =
  let print cnf = Formula.to_string (formula_of_cnf cnf) in
  QCheck.make ~print (fun st ->
      let arr = Array.of_list (letters nvars) in
      let lit sign = (sign, arr.(Random.State.int st nvars)) in
      let clause () =
        match shape with
        | `Horn ->
            let body =
              List.init (1 + Random.State.int st 3) (fun _ -> lit false)
            in
            if Random.State.bool st then lit true :: body else body
        | `Dual_horn ->
            let body =
              List.init (1 + Random.State.int st 3) (fun _ -> lit true)
            in
            if Random.State.bool st then lit false :: body else body
        | `Krom ->
            List.init (1 + Random.State.int st 2) (fun _ ->
                lit (Random.State.bool st))
      in
      List.init (2 + Random.State.int st 8) (fun _ -> clause ()))

let decider_matches_oracle name shape decide =
  qtest ~count:500
    (Printf.sprintf "%s matches CDCL" name)
    (arb_cnf shape)
    (fun cnf -> decide cnf = Semantics.is_sat_cdcl (formula_of_cnf cnf))

let prop_horn_decider =
  decider_matches_oracle "horn_sat" `Horn Clausal.horn_sat

let prop_dual_horn_decider =
  decider_matches_oracle "dual_horn_sat" `Dual_horn Clausal.dual_horn_sat

let prop_krom_decider = decider_matches_oracle "krom_sat" `Krom Clausal.krom_sat

let prop_decide_sat_sound =
  (* Whatever shape the random formula takes: when the fast path answers
     at all, it must agree with the solver. *)
  qtest ~count:500 "decide_sat agrees with CDCL when it answers"
    (arb_formula ~depth:4 vars4)
    (fun fm ->
      match Clausal.decide_sat fm with
      | None -> true
      | Some (answer, _) -> answer = Semantics.is_sat_cdcl fm)

let test_view_rule_form () =
  (* Horn theories written with [->] read as clauses without expansion. *)
  match Clausal.view (f "(a & b -> c) & (a -> b) & a & ~c") with
  | None -> Alcotest.fail "rule-form theory not viewed as CNF"
  | Some cnf ->
      check_int "four clauses" 4 (List.length cnf);
      check_bool "is horn" true (Clausal.is_horn cnf);
      check_bool "unsat by unit propagation" false (Clausal.horn_sat cnf)

(* -- fragment classification vs brute-force definitions ------------------- *)

let prop_horn_classification_matches =
  qtest ~count:500 "classify.horn = Horn.is_horn on random CNF"
    (arb_cnf `Krom)
    (fun cnf ->
      let fm = formula_of_cnf cnf in
      match Clausal.view fm with
      | None -> false (* CNF input must be viewed as CNF *)
      | Some viewed -> (Fragments.classify fm).Fragments.horn = Horn.is_horn viewed)

let prop_affine_decider =
  (* Random GF(2) equation systems: Gaussian elimination vs CDCL. *)
  let print fm = Formula.to_string fm in
  let arb =
    QCheck.make ~print (fun st ->
        let arr = Array.of_list vars4 in
        let equation () =
          let terms =
            List.init (1 + Random.State.int st 3) (fun _ ->
                Formula.var arr.(Random.State.int st 4))
          in
          let x = List.fold_left Formula.xor (List.hd terms) (List.tl terms) in
          if Random.State.bool st then x else Formula.not_ x
        in
        Formula.and_ (List.init (2 + Random.State.int st 5) (fun _ -> equation ())))
  in
  qtest ~count:500 "affine_sat matches CDCL" arb (fun fm ->
      match Fragments.affine_equations fm with
      | None -> Formula.equal fm Formula.top || Formula.equal fm Formula.bot
      | Some eqs -> Fragments.affine_sat eqs = Semantics.is_sat_cdcl fm)

let test_classify_examples () =
  let frag src = Fragments.classify (f src) in
  check_bool "horn" true (frag "(~a | b) & (~a | ~b | c)").Fragments.horn;
  check_bool "not horn" false (frag "(a | b) & c").Fragments.horn;
  check_bool "dual-horn" true (frag "(a | b | ~c) & a").Fragments.dual_horn;
  check_bool "krom" true (frag "(a | b) & (~b | c)").Fragments.krom;
  check_bool "affine" true (frag "(a != b) & (b == c)").Fragments.affine;
  check_bool "not affine" false (frag "(a != b) & (b | c)").Fragments.affine;
  check_bool "monotone" true (frag "a & (b | c)").Fragments.monotone;
  check_bool "antitone" true (frag "~a | ~b").Fragments.antitone;
  check_bool "unate" true (frag "a & (~b | a)").Fragments.unate;
  check_bool "imp body flips" false (frag "a -> b").Fragments.monotone;
  check_bool "iff is not unate" false (frag "a == b").Fragments.unate

(* Syntactic monotonicity implies semantic monotonicity (the converse is
   deliberately not promised). *)
let prop_monotone_semantic =
  let arb_monotone =
    let print fm = Formula.to_string fm in
    QCheck.make ~print (fun st ->
        let arr = Array.of_list vars4 in
        let rec go depth =
          if depth = 0 || Random.State.int st 3 = 0 then
            Formula.var arr.(Random.State.int st 4)
          else
            let l = go (depth - 1) and r = go (depth - 1) in
            if Random.State.bool st then Formula.conj2 l r
            else Formula.disj2 l r
        in
        go 3)
  in
  qtest ~count:300 "syntactic monotone => semantic monotone" arb_monotone
    (fun fm ->
      Polarity.is_monotone fm
      && List.for_all
           (fun m ->
             (not (Formula.eval (fun x -> Var.Set.mem x m) fm))
             || List.for_all
                  (fun x ->
                    Formula.eval
                      (fun y -> Var.Set.mem y (Var.Set.add x m))
                      fm)
                  vars4)
           (Interp.subsets vars4))

(* -- metrics --------------------------------------------------------------- *)

let test_metrics () =
  let shared = Formula.conj2 (f "a") (f "b") in
  let fm = Formula.disj2 shared (Formula.not_ shared) in
  let m = Metrics.of_formula fm in
  check_int "tree size counts occurrences" 4 m.Metrics.tree_size;
  check_int "node count" 8 m.Metrics.node_count;
  check_int "dag shares the repeated conjunction" 5 m.Metrics.dag_size;
  check_int "letters" 2 m.Metrics.letters;
  check_int "depth" 3 m.Metrics.depth;
  check_int "ands" 2 m.Metrics.connectives.Metrics.ands

let prop_dag_never_exceeds_tree =
  qtest ~count:400 "dag_size <= node_count" (arb_formula ~depth:4 vars4)
    (fun fm ->
      let m = Metrics.of_formula fm in
      m.Metrics.dag_size <= m.Metrics.node_count && m.Metrics.dag_size >= 1)

(* -- growth fitting -------------------------------------------------------- *)

let test_growth_fitting () =
  let series f = List.init 10 (fun i -> (float_of_int (i + 1), f (i + 1))) in
  (match Growth.classify_points (series (fun n -> float_of_int (n * n))) with
  | Growth.Polynomial d when d > 1.5 && d < 2.5 -> ()
  | v -> Alcotest.failf "n^2 misfit: %a" Growth.pp_verdict v);
  (match Growth.classify_points (series (fun n -> float_of_int (1 lsl n))) with
  | Growth.Superpolynomial _ -> ()
  | v -> Alcotest.failf "2^n misfit: %a" Growth.pp_verdict v);
  (match Growth.classify_points (series (fun n -> float_of_int (5 * n + 7))) with
  | Growth.Polynomial _ -> ()
  | v -> Alcotest.failf "affine misfit: %a" Growth.pp_verdict v);
  check_bool "needs 3 points" true
    (match Growth.fit [ (1., 1.); (2., 2.) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* -- report routing -------------------------------------------------------- *)

let prop_decide_sat_routing =
  (* The front door must answer correctly whatever procedure it routes
     to; the oracle is pure CDCL. *)
  qtest ~count:400 "Report.decide_sat agrees with CDCL"
    (arb_formula ~depth:4 vars4)
    (fun fm -> fst (Report.decide_sat fm) = Semantics.is_sat_cdcl fm)

let test_report_methods () =
  let meth src = snd (Report.decide_sat (f src)) in
  check_bool "horn routes to unit propagation" true
    (meth "(~a | b) & a" = "horn unit propagation");
  check_bool "krom routes to scc" true
    (meth "(a | b) & (~a | ~b) & (a | ~b)" = "2-sat scc");
  check_bool "affine routes to elimination" true
    (meth "(a != b) & (b != c) & (a != c)" = "gf(2) elimination");
  check_bool "monotone routes to endpoint" true
    (meth "a & (b | c & a)" = "monotone endpoint");
  check_bool "general formulas route to cdcl" true
    (meth "(a | b) & (~a | ~b) & (a == c | b)" = "cdcl")

let () =
  Alcotest.run "analysis"
    [
      ( "simplifier",
        simplifier_equivalence_tests
        @ [
            prop_simplify_never_grows;
            Alcotest.test_case "rewrite examples" `Quick test_simplify_examples;
          ]
        @ sat_only_tests );
      ( "clausal deciders",
        [
          prop_horn_decider;
          prop_dual_horn_decider;
          prop_krom_decider;
          prop_decide_sat_sound;
          Alcotest.test_case "rule-form view" `Quick test_view_rule_form;
        ] );
      ( "fragments",
        [
          prop_horn_classification_matches;
          prop_affine_decider;
          prop_monotone_semantic;
          Alcotest.test_case "examples" `Quick test_classify_examples;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "shared subterms" `Quick test_metrics;
          prop_dag_never_exceeds_tree;
        ] );
      ( "growth",
        [ Alcotest.test_case "synthetic series" `Quick test_growth_fitting ] );
      ( "report",
        [
          prop_decide_sat_routing;
          Alcotest.test_case "routing labels" `Quick test_report_methods;
        ] );
    ]
