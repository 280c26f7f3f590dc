(* Compact representations: Theorems 3.4 and 3.5, the bounded-case
   formulas (5)-(9), the iterated constructions of Sections 5 and 6, and
   the Measure machinery they rely on. *)

open Logic
open Revision
open Helpers

let vars4 = letters 4
let vars5 = letters 5

let arb_tp =
  QCheck.make
    ~print:(fun (t, p) ->
      Printf.sprintf "T=%s P=%s" (Formula.to_string t) (Formula.to_string p))
    (fun st ->
      let rec sat_f vars depth =
        let g = Gen.formula st ~vars ~depth in
        if Semantics.is_sat g then g else sat_f vars depth
      in
      (sat_f vars4 3, sat_f vars4 3))

(* Bounded instances: T over five letters, P over the first two. *)
let arb_bounded_tp =
  QCheck.make
    ~print:(fun (t, p) ->
      Printf.sprintf "T=%s P=%s" (Formula.to_string t) (Formula.to_string p))
    (fun st ->
      let rec sat_f vars depth =
        let g = Gen.formula st ~vars ~depth in
        if Semantics.is_sat g then g else sat_f vars depth
      in
      let pvars = [ List.nth vars5 0; List.nth vars5 1 ] in
      (sat_f vars5 3, sat_f pvars 2))

(* -- Measure ------------------------------------------------------------- *)

let prop_measure_matches_extensional =
  qtest "measure = extensional distance machinery" ~count:150 arb_tp
    (fun (t, p) ->
      let tm = Models.enumerate vars4 t and pm = Models.enumerate vars4 p in
      let d_ext = Distance.delta tm pm in
      (* one session, all three measures *)
      let m = Compact.Measure.create (Kb.make t) p in
      same_models d_ext (Compact.Measure.delta m)
      && Compact.Measure.k m = Distance.k_global tm pm
      && Var.Set.equal (Compact.Measure.omega m) (Distance.omega tm pm))

let test_measure_guards () =
  let refused what kb p expected =
    match Compact.Measure.create kb p with
    | exception Invalid_argument d -> Alcotest.(check string) what expected d
    | _ -> Alcotest.failf "%s should be rejected" what
  in
  let t_unsat = "Measure: T is unsatisfiable" in
  refused "unsat T" (Kb.make (f "a & ~a")) (f "b") t_unsat;
  refused "unsat P" (Kb.make (f "a")) (f "b & ~b")
    "Measure: P is unsatisfiable";
  refused "both unsat: T named" (Kb.make (f "a & ~a")) (f "b & ~b") t_unsat;
  (* A handle that already knows T is unsatisfiable refuses before any
     solver is built. *)
  let kb = Kb.make (f "(a | b) & ~a & ~b") in
  check_bool "decided" false (Kb.is_sat kb);
  let builds = Revkb_obs.Obs.counter "sem.env.builds" in
  let b0 = Revkb_obs.Obs.value builds in
  refused "known unsat T" kb (f "c") t_unsat;
  check_int "no solver built" b0 (Revkb_obs.Obs.value builds)

(* -- Theorem 3.4 (Dalal) ---------------------------------------------------- *)

(* The single step of Theorem 3.4 (Dalal), with its measure. *)
let dalal_step t p =
  List.hd (Compact.Construct.iterate Model_based.Dalal (Kb.make t) [ p ])

let prop_dalal_compact_query_equivalent =
  qtest "thm 3.4: query equivalence" ~count:150 arb_tp (fun (t, p) ->
      let sem = Model_based.revise_on Model_based.Dalal vars4 t p in
      Compact.Verify.query_equivalent sem
        (Compact.Construct.revise Model_based.Dalal (Kb.make t) p))

let prop_dalal_compact_k_correct =
  qtest "thm 3.4: k = k_{T,P}" ~count:150 arb_tp (fun (t, p) ->
      let tm = Models.enumerate vars4 t and pm = Models.enumerate vars4 p in
      (dalal_step t p).Compact.Construct.measure = Distance.k_global tm pm)

let test_dalal_compact_not_logically_equivalent () =
  (* The representation constrains new letters, so it is *not* logically
     equivalent in general (Theorem 3.6's asymmetry). *)
  let t = f "a & b" and p = f "~a" in
  check_bool "uses new letters" true
    (not
       (Var.Set.subset
          (Formula.vars
             (Compact.Construct.revise Model_based.Dalal (Kb.make t) p))
          (Formula.vars (Formula.conj2 t p))))

let test_dalal_compact_rejects_unsat () =
  let dalal t p =
    Compact.Construct.revise Model_based.Dalal (Kb.make (f t)) p
  in
  (match dalal "a & ~a" (f "b") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsat T rejected");
  match dalal "a" (f "b & ~b") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsat P rejected"

(* -- Theorem 3.5 (Weber) ----------------------------------------------------- *)

let prop_weber_compact_query_equivalent =
  qtest "thm 3.5: query equivalence" ~count:150 arb_tp (fun (t, p) ->
      let w = Compact.Construct.revise Model_based.Weber (Kb.make t) p in
      let sem = Model_based.revise_on Model_based.Weber vars4 t p in
      Compact.Verify.query_equivalent sem w)

let prop_weber_compact_size_linear =
  qtest "thm 3.5: size <= |T| + |P|" ~count:150 arb_tp (fun (t, p) ->
      Formula.size (Compact.Construct.revise Model_based.Weber (Kb.make t) p)
      <= Formula.size t + Formula.size p)

let test_weber_omega_in_vp () =
  (* Proposition 2.1 corollary: Ω ⊆ V(P). *)
  let st = Random.State.make [| 61 |] in
  for _ = 1 to 50 do
    let t = Gen.formula st ~vars:vars4 ~depth:3 in
    let p = Gen.formula st ~vars:vars4 ~depth:3 in
    if Semantics.is_sat t && Semantics.is_sat p then
      check_bool "Ω ⊆ V(P)" true
        (Var.Set.subset
           (Compact.Measure.omega (Compact.Measure.create (Kb.make t) p))
           (Formula.vars p))
  done

(* -- bounded case: formulas (5)-(9) ------------------------------------------- *)

let bounded_logical_equiv op =
  qtest
    (Printf.sprintf "bounded %s logically equivalent"
       (Model_based.name op))
    ~count:100 arb_bounded_tp
    (fun (t, p) ->
      let compactf = Compact.Bounded.for_op op t p in
      let sem = Model_based.revise_on op vars5 t p in
      Compact.Verify.logically_equivalent sem compactf)

let bounded_no_new_letters op =
  qtest
    (Printf.sprintf "bounded %s introduces no letters" (Model_based.name op))
    ~count:100 arb_bounded_tp
    (fun (t, p) ->
      Var.Set.subset
        (Formula.vars (Compact.Bounded.for_op op t p))
        (Var.Set.union (Formula.vars t) (Formula.vars p)))

let test_bounded_size_linear_in_t () =
  (* For fixed P, sizes of formulas (5)-(9) grow linearly with |T|. *)
  let p = f "~x1 | ~x2" in
  let t_of n =
    Formula.and_
      (List.map Formula.var (Gen.letters n)
      @ [ f "x1"; f "x2" ])
  in
  List.iter
    (fun op ->
      let s10 = Formula.size (Compact.Bounded.for_op op (t_of 10) p) in
      let s40 = Formula.size (Compact.Bounded.for_op op (t_of 40) p) in
      (* ratio of sizes ~ ratio of |T| up to the additive constant *)
      check_bool
        (Model_based.name op ^ " linear growth")
        true
        (s40 < 6 * s10))
    Model_based.all

let test_bounded_guard () =
  let p = Formula.or_ (List.map Formula.var (Gen.letters 15)) in
  match Compact.Bounded.winslett (f "x1") p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wide P should be rejected"

let test_bounded_paper_example () =
  (* Section 4.2: T = a&b&c&d&e, P = ~a|~b. *)
  let t = f "a & b & c & d & e" and p = f "~a | ~b" in
  let alpha = List.map Var.named [ "a"; "b"; "c"; "d"; "e" ] in
  check_result_models "forbus (6)"
    (Result.make alpha (Models.enumerate alpha (Compact.Bounded.forbus t p)))
    [ "b,c,d,e"; "a,c,d,e" ];
  check_result_models "dalal (8)"
    (Result.make alpha (Models.enumerate alpha (Compact.Bounded.dalal t p)))
    [ "b,c,d,e"; "a,c,d,e" ];
  check_result_models "satoh (7)"
    (Result.make alpha (Models.enumerate alpha (Compact.Bounded.satoh t p)))
    [ "b,c,d,e"; "a,c,d,e" ];
  check_result_models "weber (9)"
    (Result.make alpha (Models.enumerate alpha (Compact.Bounded.weber t p)))
    [ "b,c,d,e"; "a,c,d,e"; "c,d,e" ]

let test_bounded_winslett_paper_example () =
  (* Section 6 example: T = x1..x5 all true, P = ~x1. *)
  let t = f "x1 & x2 & x3 & x4 & x5" and p = f "~x1" in
  let sem = Model_based.revise_on Model_based.Winslett vars5 t p in
  check_result_models "winslett ~x1" sem [ "x2,x3,x4,x5" ];
  check_bool "formula (5) agrees" true
    (Compact.Verify.logically_equivalent sem (Compact.Bounded.winslett t p));
  check_bool "formula (12) query-equivalent" true
    (Compact.Verify.query_equivalent sem
       (Compact.Construct.revise Model_based.Winslett (Kb.make t) p))

(* -- iterated general case (Section 5) ------------------------------------------ *)

let arb_tps m =
  QCheck.make
    ~print:(fun (t, ps) ->
      Format.asprintf "T=%a ps=[%a]" Formula.pp t
        (Format.pp_print_list Formula.pp) ps)
    (fun st ->
      let rec sat_f depth =
        let g = Gen.formula st ~vars:vars4 ~depth in
        if Semantics.is_sat g then g else sat_f depth
      in
      (sat_f 3, List.init (1 + Random.State.int st m) (fun _ -> sat_f 2)))

(* Step i of [Construct.iterate] is query-equivalent to the semantic
   revision by the first i formulas, for every i, not just the last. *)
let iterated_qe name op vars arb ~count =
  qtest name ~count arb (fun (t, ps) ->
      let steps =
        Compact.Construct.iterate (Operator.model_op op) (Kb.make t) ps
      in
      List.length steps = List.length ps
      && List.for_all Fun.id
           (List.mapi
              (fun i s ->
                let prefix = List.filteri (fun j _ -> j <= i) ps in
                Compact.Verify.query_equivalent
                  (Iterate.revise_seq_on op vars [ t ] prefix)
                  s.Compact.Construct.formula)
              steps))

let prop_iterated_dalal =
  iterated_qe "thm 5.1: iterated Dalal query-equivalent" Operator.Dalal vars4
    (arb_tps 3) ~count:60

let prop_iterated_weber =
  iterated_qe "formula (10): iterated Weber query-equivalent" Operator.Weber
    vars4 (arb_tps 3) ~count:60

let test_iterated_dalal_size_additive () =
  (* Each step adds O(|X|^2 + |P^i|): total linear in m. *)
  let t = Formula.and_ (List.map Formula.var vars4) in
  let p = f "~x1 | ~x2" in
  let steps =
    Compact.Construct.iterate Model_based.Dalal (Kb.make t)
      (List.init 6 (fun _ -> p))
  in
  let sizes = List.map (fun s -> s.Compact.Construct.size) steps in
  let diffs =
    List.map2 ( - ) (List.tl sizes) (List.filteri (fun i _ -> i < 5) sizes)
  in
  let dmax = List.fold_left max 0 diffs
  and dmin = List.fold_left min max_int diffs in
  check_bool "per-step growth roughly constant" true (dmax <= dmin + dmin)

(* -- iterated bounded case (Section 6) -------------------------------------------- *)

let arb_bounded_tps =
  QCheck.make
    ~print:(fun (t, ps) ->
      Format.asprintf "T=%a ps=[%a]" Formula.pp t
        (Format.pp_print_list Formula.pp) ps)
    (fun st ->
      let rec sat_f vars depth =
        let g = Gen.formula st ~vars ~depth in
        if Semantics.is_sat g then g else sat_f vars depth
      in
      let pvars = [ List.nth vars5 0; List.nth vars5 1 ] in
      ( sat_f vars5 3,
        List.init (1 + Random.State.int st 3) (fun _ -> sat_f pvars 2) ))

let iterated_bounded_qe op =
  iterated_qe
    (Printf.sprintf "%s iterated bounded query-equivalent"
       (Operator.name op))
    op vars5 arb_bounded_tps ~count:50

let test_satoh_formula13_erratum () =
  (* The minimal counterexample to the paper's formula (13); our corrected
     construction must handle it. *)
  let t = f "(x1 != x2) -> x1" and p = f "~x1" in
  let alpha = [ Var.named "x1"; Var.named "x2" ] in
  let sem = Model_based.revise_on Model_based.Satoh alpha t p in
  check_result_models "semantic Satoh" sem [ "" ];
  check_bool "corrected construction agrees" true
    (Compact.Verify.query_equivalent sem
       (Compact.Construct.revise Model_based.Satoh (Kb.make t) p))

let test_iterated_bounded_size_additive () =
  let t = Formula.and_ (List.map Formula.var vars5) in
  let p = f "~x1 | ~x2" in
  let size m =
    Formula.size
      Compact.Construct.(
        final t
          (iterate Model_based.Winslett (Kb.make t) (List.init m (fun _ -> p))))
  in
  let s2 = size 2 and s4 = size 4 and s8 = size 8 in
  check_bool "additive growth" true (s8 - s4 < 2 * (s4 - s2) + 32)

(* -- compile-then-ask entailment --------------------------------------------------------- *)

let entails_agrees op =
  qtest
    (Printf.sprintf "Check.entails %s = extensional" (Model_based.name op))
    ~count:60
    (QCheck.triple arb_tp (arb_formula vars4) (arb_formula vars4))
    (fun ((t, p), q, _) ->
      Compact.Check.entails op t p q
      = Result.entails (Model_based.revise_on op vars4 t p) q)

let test_entails_scales () =
  (* inference at a 30-letter alphabet, no enumeration *)
  let letters = Gen.letters 30 in
  let t = Formula.and_ (List.map Formula.var letters) in
  let p = f "~x1 & ~x2" in
  check_bool "dalal keeps x17" true
    (Compact.Check.entails Model_based.Dalal t p (f "x17"));
  check_bool "dalal drops x1" true
    (Compact.Check.entails Model_based.Dalal t p (f "~x1"));
  check_bool "weber keeps x17" true
    (Compact.Check.entails Model_based.Weber t p (f "x17"));
  check_bool "no over-claim" false
    (Compact.Check.entails Model_based.Dalal t p (f "x1"))

(* -- unexpanded QBF views --------------------------------------------------------------- *)

let prop_qbf_views_query_equivalent =
  qtest "QBF views (12)/(14) expand to query-equivalent formulas" ~count:30
    arb_bounded_tp
    (fun (t, p) ->
      let sem_w = Model_based.revise_on Model_based.Winslett vars5 t p in
      let sem_f = Model_based.revise_on Model_based.Forbus vars5 t p in
      Compact.Verify.query_equivalent sem_w
        (Qbf.expand (Compact.Construct.winslett_qbf t p))
      && Compact.Verify.query_equivalent sem_f
           (Qbf.expand (Compact.Construct.forbus_qbf t p)))

let test_qbf_matrix_polynomial () =
  (* the matrix stays polynomial as |V(P)| grows; only expansion does not *)
  let sizes =
    List.map
      (fun k ->
        let vars = Gen.letters (k + 2) in
        let pvars = List.filteri (fun i _ -> i < k) vars in
        let t = Formula.and_ (List.map Formula.var vars) in
        let p =
          Formula.or_ (List.map (fun v -> Formula.not_ (Formula.var v)) pvars)
        in
        let rec qbf_size (q : Qbf.t) =
          match q with
          | Qbf.Prop f -> Formula.size f
          | Qbf.Forall (_, q) | Qbf.Exists (_, q) -> qbf_size q
          | Qbf.Conj qs -> List.fold_left (fun a q -> a + qbf_size q) 0 qs
        in
        qbf_size (Compact.Construct.forbus_qbf t p))
      [ 2; 4; 8 ]
  in
  match sizes with
  | [ s2; s4; s8 ] ->
      check_bool "matrix growth polynomial" true (s8 < 10 * s4 && s4 < 10 * s2)
  | _ -> assert false

(* -- SAT-based model checking (Check) ------------------------------------------------- *)

let prop_check_agrees_with_extensional op =
  qtest
    (Printf.sprintf "check %s = extensional" (Model_based.name op))
    ~count:60 arb_tp
    (fun (t, p) ->
      let sem = Model_based.revise_on op vars4 t p in
      List.for_all
        (fun n ->
          Compact.Check.model_check op t p n = Result.model_check sem n)
        (Interp.subsets vars4))

(* The CEGAR refinement clause against its definition.  A refinement is
   a triple (M, N, N'): witness M refuted by the P-model N' against the
   candidate N under the operator's closeness.  The generator builds
   N' = M Δ S from a random S that is a strict subset of M Δ N
   (inclusion) or smaller than it (cardinality), so every refinement
   over n <= 6 letters is reachable.  All 2^n witnesses are then
   enumerated: each one the clause excludes (agrees with N' on the
   blocked letters) must be refuted by N', and M must be among them. *)
let popcount x =
  let rec go x c = if x = 0 then c else go (x land (x - 1)) (c + 1) in
  go x 0

let refutes_by op ~witness ~candidate ~refuter =
  let near = witness lxor refuter and far = witness lxor candidate in
  match op with
  | Model_based.Forbus -> popcount near < popcount far
  | _ -> near land lnot far = 0 && near <> far

let arb_refinement op =
  QCheck.make
    ~print:(fun (n, m, c, r) ->
      Printf.sprintf "n=%d M=%#x N=%#x N'=%#x" n m c r)
    (fun st ->
      let rec draw () =
        let n = 1 + Random.State.int st 6 in
        let full = (1 lsl n) - 1 in
        let m = Random.State.int st (full + 1)
        and c = Random.State.int st (full + 1) in
        let far = m lxor c in
        if far = 0 then draw ()
        else
          let rec shrink s =
            let too_big =
              match op with
              | Model_based.Forbus -> popcount s >= popcount far
              | _ -> s = far
            in
            if too_big then shrink (s land (s - 1)) else s
          in
          let s =
            shrink
              (match op with
              | Model_based.Forbus -> Random.State.int st (full + 1)
              | _ -> far land Random.State.int st (full + 1))
          in
          (n, m, c, m lxor s)
      in
      draw ())

let prop_refinement_clause op =
  qtest
    (Printf.sprintf "CEGAR block clause %s refuted by N'" (Model_based.name op))
    ~count:500 (arb_refinement op)
    (fun (n, m, c, r) ->
      let a =
        Compact.Check.refutation_core (module Mask.Packed) ~witness:m
          ~candidate:c ~refuter:r
      in
      let excluded m' = (m' lxor r) land a = 0 in
      let alpha = Interp_packed.alphabet (letters n) in
      let wide x = Mask.Wide.init alpha (fun i -> x land (1 lsl i) <> 0) in
      let a_wide =
        Compact.Check.refutation_core (module Mask.Wide) ~witness:(wide m)
          ~candidate:(wide c) ~refuter:(wide r)
      in
      refutes_by op ~witness:m ~candidate:c ~refuter:r
      && excluded m
      && List.for_all
           (fun m' ->
             (not (excluded m')) || refutes_by op ~witness:m' ~candidate:c ~refuter:r)
           (List.init (1 lsl n) Fun.id)
      && List.for_all
           (fun i -> Mask.Wide.test a_wide i = (a land (1 lsl i) <> 0))
           (List.init n Fun.id))

let test_check_scales () =
  (* An instance far beyond enumeration: 30 unit facts, P flips two. *)
  let letters = Gen.letters 30 in
  let t = Formula.and_ (List.map Formula.var letters) in
  let p = f "~x1 & ~x2" in
  let all_but_first_two =
    Var.set_of_list (List.filteri (fun i _ -> i >= 2) letters)
  in
  List.iter
    (fun op ->
      check_bool
        (Model_based.name op ^ " selects the flip")
        true
        (Compact.Check.model_check op t p all_but_first_two);
      check_bool
        (Model_based.name op ^ " rejects a gratuitous extra flip")
        false
        (Compact.Check.model_check op t p
           (Var.Set.remove (List.nth letters 5) all_but_first_two)))
    Model_based.all

(* Horn inputs must reach the linear fast path inside the checker's
   plain satisfiability probes — the guard of the operators that measure
   nothing (Dalal, Weber and Satoh decide T and P on their measure's
   session instead): the counters in [Logic.Clausal] make the routing
   observable. *)
let test_check_horn_fast_path () =
  let t = f "(a -> b) & (b -> c) & a" in
  let p = f "~c" in
  Logic.Clausal.reset_stats ();
  check_bool "M |= T * P after giving up only c" true
    (Compact.Check.model_check Model_based.Winslett t p
       (interp_of_string "a, b"));
  let hits = Logic.Clausal.fast_path_hits () in
  check_bool
    (Printf.sprintf "fast path hit at least twice (got %d)" hits)
    true (hits >= 2);
  check_bool "hits were horn hits" true
    ((Logic.Clausal.stats ()).Logic.Clausal.horn >= 2)

let test_check_dist_to () =
  let alphabet = letters 3 in
  check_bool "distance 0" true
    (Compact.Check.dist_to (f "x1 | x2") (interp_of_string "x1") alphabet
    = Some 0);
  check_bool "distance 2" true
    (Compact.Check.dist_to (f "x1 & x2 & x3") (interp_of_string "x1") alphabet
    = Some 2);
  check_bool "unsat" true
    (Compact.Check.dist_to (f "x1 & ~x1") Var.Set.empty alphabet = None)

(* -- Session (Section 6.2 strategy) -------------------------------------------------- *)

let test_session_lazy_incorporation () =
  let s = Compact.Session.create ~op:Operator.Dalal (Theory.of_string "a & b") in
  Compact.Session.revise s (f "~a");
  Compact.Session.revise s (f "~b");
  check_int "log length" 2 (List.length (Compact.Session.log s));
  check_bool "ask ~a" true (Compact.Session.ask s (f "~a"));
  check_bool "ask ~b" true (Compact.Session.ask s (f "~b"));
  check_bool "model check {}" true
    (Compact.Session.model_check s Var.Set.empty);
  (* compile is query-equivalent to the session's semantics *)
  check_bool "compile query-equivalent" true
    (Compact.Verify.query_equivalent (Compact.Session.result s)
       (Compact.Session.compile s))

let test_session_all_ops_compile () =
  let st = Random.State.make [| 71 |] in
  let pvars = [ List.nth vars5 0; List.nth vars5 1 ] in
  for _ = 1 to 10 do
    let rec sat_f vars depth =
      let g = Gen.formula st ~vars ~depth in
      if Semantics.is_sat g then g else sat_f vars depth
    in
    let t = sat_f vars5 3 in
    let ps = List.init 2 (fun _ -> sat_f pvars 2) in
    List.iter
      (fun op ->
        let s = Compact.Session.create ~op [ t ] in
        List.iter (Compact.Session.revise s) ps;
        check_bool
          (Operator.name op ^ " session compile")
          true
          (Compact.Verify.query_equivalent (Compact.Session.result s)
             (Compact.Session.compile s)))
      [
        Operator.Widtio;
        Operator.Winslett;
        Operator.Borgida;
        Operator.Forbus;
        Operator.Satoh;
        Operator.Dalal;
        Operator.Weber;
      ]
  done

let test_session_gfuv_restrictions () =
  let s = Compact.Session.create ~op:Operator.Gfuv (Theory.of_string "a; b") in
  Compact.Session.revise s (f "~b");
  check_bool "single GFUV revision answers" true
    (Compact.Session.ask s (f "a"));
  (match Compact.Session.revise s (f "~a") with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "second GFUV revision should be rejected");
  match Compact.Session.compile s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "GFUV compile should be rejected"

let test_session_empty_log () =
  let s = Compact.Session.create ~op:Operator.Dalal (Theory.of_string "a -> b") in
  check_bool "base consequences" true (Compact.Session.ask s (f "a -> b"));
  check_bool "compile = base" true
    (Semantics.equiv (Compact.Session.compile s) (f "a -> b"))

let test_session_cache_invalidation () =
  let s = Compact.Session.create ~op:Operator.Dalal (Theory.of_string "a") in
  check_bool "a holds" true (Compact.Session.ask s (f "a"));
  Compact.Session.revise s (f "~a");
  check_bool "a retracted after revise" false (Compact.Session.ask s (f "a"));
  check_bool "~a holds" true (Compact.Session.ask s (f "~a"))

let test_measure_trivial_p () =
  (* V(P) = {} : the only realizable difference is the empty one. *)
  let m = Compact.Measure.create (Kb.make (f "a | b")) Formula.top in
  let d = Compact.Measure.delta m in
  check_int "delta = {{}}" 1 (List.length d);
  check_bool "empty diff" true (Var.Set.is_empty (List.hd d));
  check_int "k = 0" 0 (Compact.Measure.k m)

let test_dalal_compact_consistent_case () =
  (* T ∧ P consistent: k = 0 and the representation is query-equivalent
     to T ∧ P. *)
  let t = f "a | b" and p = f "a" in
  check_int "k = 0" 0 (dalal_step t p).Compact.Construct.measure;
  let sem = Model_based.revise Model_based.Dalal t p in
  check_bool "equals T∧P" true
    (Compact.Verify.query_equivalent sem (Formula.conj2 t p))

let test_check_requires_sat () =
  (match Compact.Check.model_check Model_based.Dalal (f "a & ~a") (f "b") Var.Set.empty with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsat T");
  match Compact.Check.model_check Model_based.Dalal (f "a") (f "b & ~b") Var.Set.empty with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsat P"

let test_check_rejects_non_p_model () =
  check_bool "not a model of P" false
    (Compact.Check.model_check Model_based.Dalal (f "a") (f "b")
       Var.Set.empty)

(* -- Names -------------------------------------------------------------------------- *)

let test_names_avoid_capture () =
  let xs = [ Var.named "nm_a"; Var.named "nm_b" ] in
  let avoid = Var.set_of_list [ Var.named "nm_a'" ] in
  let ys = Compact.Names.copy ~avoid ~suffix:"'" xs in
  List.iter
    (fun y ->
      check_bool "fresh" false (List.mem y xs || Var.Set.mem y avoid))
    ys;
  check_int "same length" 2 (List.length ys)

(* A later formula may use the very names an earlier step's copy would
   take ([a'], [a_z], [a_wy], ...): the copy must avoid them too, or the
   later step would read a fresh letter as one of its own. *)
let test_iterate_avoids_later_letters () =
  let t = f "a" in
  let wrong =
    List.filter
      (fun (op, copies) ->
        let later = f ("a | ~(" ^ copies ^ ")") in
        let ps = [ f "~a"; later ] in
        not
          (Compact.Verify.query_equivalent
             (Iterate.revise_seq_on op
                (Var.Set.elements (Formula.vars later))
                [ t ] ps)
             Compact.Construct.(
               final t (iterate (Operator.model_op op) (Kb.make t) ps))))
      Operator.
        [
          (Winslett, "a_wy & a_wz");
          (Borgida, "a_wy & a_wz");
          (Forbus, "a_fy & a_fz");
          (Satoh, "a_sy");
          (Dalal, "a'");
          (Weber, "a_z");
        ]
  in
  Alcotest.(check (list string))
    "operators answering wrong" []
    (List.map (fun (op, _) -> Operator.name op) wrong)

let () =
  Alcotest.run "compact"
    [
      ( "measure",
        [
          prop_measure_matches_extensional;
          Alcotest.test_case "guards" `Quick test_measure_guards;
        ] );
      ( "thm 3.4 dalal",
        [
          prop_dalal_compact_query_equivalent;
          prop_dalal_compact_k_correct;
          Alcotest.test_case "not logically equivalent" `Quick
            test_dalal_compact_not_logically_equivalent;
          Alcotest.test_case "rejects unsat" `Quick
            test_dalal_compact_rejects_unsat;
        ] );
      ( "thm 3.5 weber",
        [
          prop_weber_compact_query_equivalent;
          prop_weber_compact_size_linear;
          Alcotest.test_case "omega within V(P)" `Quick test_weber_omega_in_vp;
        ] );
      ( "bounded (5)-(9)",
        List.map bounded_logical_equiv Model_based.all
        @ List.map bounded_no_new_letters Model_based.all
        @ [
            Alcotest.test_case "linear in |T|" `Quick
              test_bounded_size_linear_in_t;
            Alcotest.test_case "width guard" `Quick test_bounded_guard;
            Alcotest.test_case "paper example (4.2)" `Quick
              test_bounded_paper_example;
            Alcotest.test_case "paper example (section 6)" `Quick
              test_bounded_winslett_paper_example;
          ] );
      ( "iterated general (section 5)",
        [
          prop_iterated_dalal;
          prop_iterated_weber;
          Alcotest.test_case "additive size growth" `Quick
            test_iterated_dalal_size_additive;
        ] );
      ( "iterated bounded (section 6)",
        [
          iterated_bounded_qe Operator.Winslett;
          iterated_bounded_qe Operator.Borgida;
          iterated_bounded_qe Operator.Forbus;
          iterated_bounded_qe Operator.Satoh;
          Alcotest.test_case "formula (13) erratum" `Quick
            test_satoh_formula13_erratum;
          Alcotest.test_case "additive size growth" `Quick
            test_iterated_bounded_size_additive;
        ] );
      ( "compile-then-ask entailment",
        [
          entails_agrees Model_based.Dalal;
          entails_agrees Model_based.Weber;
          entails_agrees Model_based.Winslett;
          entails_agrees Model_based.Borgida;
          entails_agrees Model_based.Forbus;
          entails_agrees Model_based.Satoh;
          Alcotest.test_case "scales past enumeration" `Quick
            test_entails_scales;
        ] );
      ( "qbf views",
        [
          prop_qbf_views_query_equivalent;
          Alcotest.test_case "polynomial matrix" `Quick
            test_qbf_matrix_polynomial;
        ] );
      ( "sat model checking",
        List.map prop_check_agrees_with_extensional Model_based.all
        @ List.map prop_refinement_clause Model_based.[ Winslett; Forbus ]
        @ [
            Alcotest.test_case "scales past enumeration" `Quick
              test_check_scales;
            Alcotest.test_case "dist_to" `Quick test_check_dist_to;
            Alcotest.test_case "horn fast path hit" `Quick
              test_check_horn_fast_path;
          ] );
      ( "session",
        [
          Alcotest.test_case "lazy incorporation" `Quick
            test_session_lazy_incorporation;
          Alcotest.test_case "compile across operators" `Quick
            test_session_all_ops_compile;
          Alcotest.test_case "gfuv restrictions" `Quick
            test_session_gfuv_restrictions;
          Alcotest.test_case "empty log" `Quick test_session_empty_log;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "session cache invalidation" `Quick
            test_session_cache_invalidation;
          Alcotest.test_case "measure with trivial P" `Quick
            test_measure_trivial_p;
          Alcotest.test_case "dalal compact, consistent case" `Quick
            test_dalal_compact_consistent_case;
          Alcotest.test_case "check requires satisfiable input" `Quick
            test_check_requires_sat;
          Alcotest.test_case "check rejects non-P-model" `Quick
            test_check_rejects_non_p_model;
        ] );
      ( "names",
        [
          Alcotest.test_case "capture avoidance" `Quick test_names_avoid_capture;
          Alcotest.test_case "iterate avoids later letters" `Quick
            test_iterate_avoids_later_letters;
        ]
      );
    ]
