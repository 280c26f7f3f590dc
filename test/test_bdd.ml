(* Differential tests for the production ROBDD engine: every query the
   diagrams answer is cross-checked against the brute-force packed
   engine, the SAT route, or the model-based revision operators — the
   three oracles the serving layer composes.  Sifting and automatic
   reordering are property-tested to never move an answer. *)

open Logic
open Helpers
module MB = Revision.Model_based
module Result = Revision.Result
module Pool = Revkb_parallel.Pool

let vars6 = letters 6
let vars8 = letters 8
let vars10 = letters 10
let vars12 = letters 12

let compile vars f =
  let mgr = Bdd.manager vars in
  (mgr, Bdd.of_formula mgr f)

(* -- compilation vs the packed brute-force engine ----------------------- *)

let compile_tests =
  List.map
    (fun vars ->
      let n = List.length vars in
      qtest ~count:150
        (Printf.sprintf "sat_count/models/eval vs packed (n=%d)" n)
        (arb_formula ~depth:4 vars)
        (fun fm ->
          let mgr, node = compile vars fm in
          let alpha = Interp_packed.alphabet vars in
          let reference = Models.enumerate_packed alpha fm in
          let ms = Bdd.models mgr node in
          Bdd.sat_count mgr node = List.length ms
          && Interp_packed.equal_set reference
               (Interp_packed.set_of_interps alpha ms)
          && List.for_all (fun m -> Bdd.eval mgr node m) ms))
    [ vars6; vars8; vars12 ]

let eval_agrees =
  qtest ~count:200 "eval = Interp.sat"
    (arb_pair (arb_formula vars8) (arb_interp vars8))
    (fun (fm, m) ->
      let mgr, node = compile vars8 fm in
      Bdd.eval mgr node m = Interp.sat m fm)

let of_models_roundtrip =
  qtest ~count:150 "of_models inverts models"
    (arb_formula vars6)
    (fun fm ->
      let mgr, node = compile vars6 fm in
      Bdd.equal node (Bdd.of_models mgr (Bdd.models mgr node)))

(* -- connectives all route through the shared ite cache ------------------ *)

let connectives =
  qtest ~count:200 "connectives match of_formula"
    (arb_pair (arb_formula vars6) (arb_formula vars6))
    (fun (f, g) ->
      let mgr = Bdd.manager vars6 in
      let nf = Bdd.of_formula mgr f and ng = Bdd.of_formula mgr g in
      let same build node = Bdd.equal (Bdd.of_formula mgr build) node in
      same (Formula.conj2 f g) (Bdd.and_ nf ng)
      && same (Formula.disj2 f g) (Bdd.or_ nf ng)
      && same (Formula.not_ f) (Bdd.not_ nf)
      && same (Formula.xor f g) (Bdd.xor_ nf ng)
      && same (Formula.imp f g) (Bdd.imp_ nf ng)
      && same (Formula.iff f g) (Bdd.iff_ nf ng))

let ite_def =
  qtest ~count:200 "ite f g h = (f&g) | (~f&h)"
    (arb_triple (arb_formula vars6) (arb_formula vars6) (arb_formula vars6))
    (fun (f, g, h) ->
      let mgr = Bdd.manager vars6 in
      let nf = Bdd.of_formula mgr f
      and ng = Bdd.of_formula mgr g
      and nh = Bdd.of_formula mgr h in
      Bdd.equal (Bdd.ite nf ng nh)
        (Bdd.or_ (Bdd.and_ nf ng) (Bdd.and_ (Bdd.not_ nf) nh)))

(* -- quantification, cofactors, substitution, polarity flips ------------- *)

let quantifier_tests =
  let x = List.nth vars8 2 and y = List.nth vars8 5 in
  let xs = Var.Set.of_list [ x; y ] in
  [
    qtest ~count:200 "exists = or of cofactors"
      (arb_formula ~depth:4 vars8)
      (fun fm ->
        let _mgr, nf = compile vars8 fm in
        let ex =
          Bdd.or_
            (Bdd.restrict [ (x, true) ] nf)
            (Bdd.restrict [ (x, false) ] nf)
        in
        Bdd.equal (Bdd.exists (Var.Set.singleton x) nf) ex);
    qtest ~count:200 "forall dual of exists"
      (arb_formula ~depth:4 vars8)
      (fun fm ->
        let _mgr, nf = compile vars8 fm in
        Bdd.equal (Bdd.forall xs nf)
          (Bdd.not_ (Bdd.exists xs (Bdd.not_ nf))));
    qtest ~count:200 "and_exists = exists of and"
      (arb_pair (arb_formula vars8) (arb_formula vars8))
      (fun (f, g) ->
        let mgr = Bdd.manager vars8 in
        let nf = Bdd.of_formula mgr f and ng = Bdd.of_formula mgr g in
        Bdd.equal
          (Bdd.and_exists xs nf ng)
          (Bdd.exists xs (Bdd.and_ nf ng)));
    qtest ~count:200 "compose x g f = ite g f[x:=1] f[x:=0]"
      (arb_pair (arb_formula vars8) (arb_formula vars8))
      (fun (f, g) ->
        let mgr = Bdd.manager vars8 in
        let nf = Bdd.of_formula mgr f and ng = Bdd.of_formula mgr g in
        Bdd.equal
          (Bdd.compose x ng nf)
          (Bdd.ite ng
             (Bdd.restrict [ (x, true) ] nf)
             (Bdd.restrict [ (x, false) ] nf)));
    qtest ~count:200 "flip x f evals as f with x toggled"
      (arb_pair (arb_formula vars8) (arb_interp vars8))
      (fun (fm, m) ->
        let mgr, nf = compile vars8 fm in
        let toggled =
          if Var.Set.mem x m then Var.Set.remove x m else Var.Set.add x m
        in
        Bdd.eval mgr (Bdd.flip x nf) m = Bdd.eval mgr nf toggled);
    qtest ~count:200 "restrict pins a literal"
      (arb_pair (arb_formula vars8) (arb_interp vars8))
      (fun (fm, m) ->
        let mgr, nf = compile vars8 fm in
        let r = Bdd.restrict [ (x, true); (y, false) ] nf in
        Bdd.eval mgr r m
        = Bdd.eval mgr nf (Var.Set.add x (Var.Set.remove y m)));
  ]

(* -- revision on the compiled form vs the model-based engine ------------- *)

let ops =
  [
    ("winslett", MB.Winslett, Bdd.Revise.winslett);
    ("borgida", MB.Borgida, Bdd.Revise.borgida);
    ("forbus", MB.Forbus, Bdd.Revise.forbus);
    ("satoh", MB.Satoh, Bdd.Revise.satoh);
    ("dalal", MB.Dalal, Bdd.Revise.dalal);
    ("weber", MB.Weber, Bdd.Revise.weber);
  ]

let revise_tests =
  List.map
    (fun (name, op, bdd_op) ->
      qtest ~count:60
        (Printf.sprintf "Revise.%s = Model_based at jobs 1 and 4" name)
        (arb_pair (arb_formula vars6) (arb_formula vars6))
        (fun (t, p) ->
          let mgr = Bdd.manager vars6 in
          let revised =
            bdd_op mgr (Bdd.of_formula mgr t) (Bdd.of_formula mgr p)
          in
          let bdd_models = Bdd.models mgr revised in
          let seq =
            Pool.with_jobs 1 (fun () ->
                Result.models (MB.revise_on op vars6 t p))
          in
          let par =
            Pool.with_jobs 4 (fun () ->
                Result.models (MB.revise_on op vars6 t p))
          in
          same_models bdd_models seq && same_models seq par))
    ops

(* -- sifting and automatic reordering never move an answer --------------- *)

let sift_preserves =
  qtest ~count:100 "sift preserves counts, evals, and never grows"
    (arb_pair (arb_formula ~depth:4 vars10) (arb_interp vars10))
    (fun (fm, m) ->
      let mgr, node = compile vars10 fm in
      let count = Bdd.sat_count mgr node in
      let value = Bdd.eval mgr node m in
      let size = Bdd.node_count node in
      Bdd.sift mgr;
      Bdd.sat_count mgr node = count
      && Bdd.eval mgr node m = value
      && Bdd.node_count node <= size
      && List.sort Var.compare (Bdd.order mgr)
         = List.sort Var.compare vars10)

(* The blocked interleaving (x1..xk then y1..yk for or of xi&yi) is the
   classic exponential-vs-linear order gap: one sifting pass must find a
   dramatically smaller diagram. *)
let sift_blocked_order () =
  let k = 6 in
  let xs = letters ~prefix:"sx" k and ys = letters ~prefix:"sy" k in
  let f =
    Formula.or_
      (List.map2
         (fun x y -> Formula.conj2 (Formula.var x) (Formula.var y))
         xs ys)
  in
  let mgr = Bdd.manager (xs @ ys) in
  let node = Bdd.of_formula mgr f in
  let before = Bdd.node_count node in
  let count = Bdd.sat_count mgr node in
  Bdd.sift mgr;
  check_bool "count preserved" true (Bdd.sat_count mgr node = count);
  check_bool "strictly smaller" true (Bdd.node_count node < before);
  check_bool "optimal interleaving found" true (Bdd.node_count node = 2 * k)

let sift_stats () =
  let k = 6 in
  let xs = letters ~prefix:"ax" k and ys = letters ~prefix:"ay" k in
  let f =
    Formula.or_
      (List.map2
         (fun x y -> Formula.conj2 (Formula.var x) (Formula.var y))
         xs ys)
  in
  let mgr = Bdd.manager (xs @ ys) in
  let node = Bdd.of_formula mgr f in
  Bdd.sift mgr;
  let st = Bdd.stats mgr in
  check_bool "answers intact" true
    (Bdd.sat_count mgr node = Models.count (xs @ ys) f);
  check_bool "live metric agrees" true (Bdd.live_nodes mgr > 0);
  check_bool "cache was exercised" true
    (st.Bdd.cache_misses > 0 && st.Bdd.unique_misses > 0
   && st.Bdd.unique_hits >= 0 && st.Bdd.cache_hits >= 0 && st.Bdd.freed >= 0)

(* -- enumeration cap ------------------------------------------------------ *)

let models_cap () =
  let mgr = Bdd.manager vars12 in
  let all = Bdd.top mgr in
  (match Bdd.models ~cap:100 mgr all with
  | exception Semantics.Enumeration_cap_exceeded { enumerator; cap } ->
      check_bool "enumerator" true (enumerator = "bdd");
      check_bool "cap" true (cap = 100)
  | _ -> Alcotest.fail "expected Enumeration_cap_exceeded");
  (* default cap admits small alphabets: 2^12 models materialize fine *)
  check_bool "under default cap" true
    (List.length (Bdd.models mgr all) = 4096);
  check_bool "bot has no models" true (Bdd.models mgr (Bdd.bot mgr) = [])

(* -- of_formula short-circuits dead branches ----------------------------- *)

let early_exit () =
  let a = List.hd vars12 in
  let big =
    Formula.and_
      (List.init 64 (fun i ->
           Formula.disj2
             (Formula.var (List.nth vars12 (i mod 12)))
             (Formula.var (List.nth vars12 ((i * 5 + 1) mod 12)))))
  in
  let contra =
    Formula.and_ [ Formula.var a; Formula.not_ (Formula.var a); big ]
  in
  let mgr = Bdd.manager vars12 in
  let node = Bdd.of_formula mgr contra in
  check_bool "contradiction" true (Bdd.is_false node);
  check_bool "tail never compiled" true (Bdd.live_nodes mgr < 8);
  let valid =
    Formula.or_ [ Formula.var a; Formula.not_ (Formula.var a); big ]
  in
  let mgr2 = Bdd.manager vars12 in
  let node2 = Bdd.of_formula mgr2 valid in
  check_bool "tautology" true (Bdd.is_true node2);
  check_bool "disjunction tail never compiled" true (Bdd.live_nodes mgr2 < 8)

(* -- the compiled serving route ------------------------------------------ *)

let zz = Var.named "zzq"

let compiled_entails =
  qtest ~count:150 "Compiled.entails/equivalent/ask/count vs SAT route"
    (arb_pair (arb_formula vars8) (arb_formula vars8))
    (fun (t, q0) ->
      (* the query mentions a letter the KB never does: entailment must
         treat it as universally quantified on every route *)
      let q = Formula.disj2 q0 (Formula.conj2 q0 (Formula.var zz)) in
      let compiled = Semantics.Compiled.compile t in
      (* count is over the alphabet at compile time, no matter how many
         query letters later extend the manager *)
      let base = Var.Set.elements (Formula.vars t) in
      Semantics.Compiled.entails compiled q = Semantics.entails t q
      && Semantics.Compiled.entails compiled q0 = Semantics.entails t q0
      && Semantics.Compiled.equivalent compiled q0
         = Models.equivalent_on (Models.alphabet_of [ t; q0 ]) t q0
      && Semantics.Compiled.count compiled = Models.count base t)

let compiled_ask =
  qtest ~count:200 "Compiled.ask = Interp.sat"
    (arb_pair (arb_formula vars8) (arb_interp vars8))
    (fun (t, m) ->
      let compiled = Semantics.Compiled.compile t in
      Semantics.Compiled.ask compiled m = Interp.sat m t)

let compiled_shape () =
  let t = Formula.conj2 (Formula.v "a") (Formula.v "b") in
  let c = Semantics.Compiled.compile t in
  Bdd.sift (Semantics.Compiled.manager c);
  check_bool "sat" true (Semantics.Compiled.sat c);
  check_bool "size" true (Semantics.Compiled.size c = 2);
  check_bool "order covers vars" true
    (List.sort Var.compare (Semantics.Compiled.order c)
    = Var.Set.elements (Formula.vars t));
  check_bool "root on manager" true
    (Bdd.sat_count
       (Semantics.Compiled.manager c)
       (Semantics.Compiled.root c)
    = 1);
  check_bool "unsat detected" false
    (Semantics.Compiled.sat
       (Semantics.Compiled.compile
          (Formula.conj2 (Formula.v "a") (Formula.not_ (Formula.v "a")))))

(* -- force_order ---------------------------------------------------------- *)

let force_order_permutes =
  qtest ~count:200 "force_order permutes the formula's letters"
    (arb_formula vars10)
    (fun fm ->
      List.sort Var.compare (Bdd.force_order fm)
      = Var.Set.elements (Formula.vars fm))

(* -- the BDD equivalence oracle vs the SAT-based checkers ----------------- *)

let vars5 = letters 5

let verify_agrees =
  qtest ~count:60 "Verify.bdd_equivalent = query_equivalent"
    (arb_triple (arb_sat_formula vars5) (arb_sat_formula vars5)
       (arb_formula vars5))
    (fun (t, p, g) ->
      let result = MB.revise MB.Dalal t p in
      let compact = Compact.Construct.revise MB.Dalal (Kb.make t) p in
      Compact.Verify.bdd_equivalent result g
      = Compact.Verify.query_equivalent result g
      && Compact.Verify.bdd_equivalent result (Result.to_dnf result)
      && Compact.Verify.bdd_equivalent result compact
         = Compact.Verify.query_equivalent result compact)

(* -- manager hygiene ------------------------------------------------------ *)

let manager_checks () =
  let mgr = Bdd.manager vars6 in
  let other = Bdd.manager vars6 in
  let n = Bdd.var_node mgr (List.hd vars6) in
  (match Bdd.and_ n (Bdd.var_node other (List.hd vars6)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cross-manager apply must be rejected");
  (match Bdd.manager (List.hd vars6 :: vars6) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate letters must be rejected");
  Bdd.extend mgr [ zz ];
  check_bool "extend appends at the bottom" true
    (Bdd.order mgr = vars6 @ [ zz ]);
  check_bool "extended letter queries" true
    (Bdd.sat_count mgr (Bdd.var_node mgr zz) = 64)

let () =
  Alcotest.run "bdd"
    [
      ( "compile",
        compile_tests
        @ [ eval_agrees; of_models_roundtrip; connectives; ite_def ] );
      ("operations", quantifier_tests);
      ("revise", revise_tests);
      ( "reordering",
        [
          sift_preserves;
          Alcotest.test_case "blocked order" `Quick sift_blocked_order;
          Alcotest.test_case "answers and stats after sift" `Quick
            sift_stats;
        ] );
      ( "limits",
        [
          Alcotest.test_case "models cap" `Quick models_cap;
          Alcotest.test_case "early exit" `Quick early_exit;
        ] );
      ( "serving",
        [
          compiled_entails;
          compiled_ask;
          Alcotest.test_case "compiled shape" `Quick compiled_shape;
          force_order_permutes;
          verify_agrees;
        ] );
      ( "hygiene",
        [ Alcotest.test_case "manager checks" `Quick manager_checks ] );
    ]
