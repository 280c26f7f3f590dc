(* Revision operators: the paper's worked examples, the Figure 1
   containment lattice, Proposition 2.1, formula-based worlds/WIDTIO/
   Nebel, iterated revision, and the KM postulate split. *)

open Logic
open Revision
open Helpers
module Structure = Revkb_oracle.Structure

let vars4 = letters 4
let vars5 = letters 5

(* Pairs of satisfiable formulas over vars4. *)
let arb_tp =
  QCheck.make
    ~print:(fun (t, p) ->
      Printf.sprintf "T=%s P=%s" (Formula.to_string t) (Formula.to_string p))
    (fun st ->
      let rec sat_f () =
        let g = Gen.formula st ~vars:vars4 ~depth:3 in
        if Semantics.is_sat g then g else sat_f ()
      in
      (sat_f (), sat_f ()))

let revise_models op t p =
  Result.models (Model_based.revise_on op vars4 t p)

(* -- the Section 2.2.2 worked example ------------------------------------- *)

let paper_t = f "a & b & c"
let paper_p = f "(~a & ~b & ~d) | (~c & b & (a != d))"
let paper_alpha = List.map Var.named [ "a"; "b"; "c"; "d" ]

let paper_example op expected () =
  check_result_models
    (Model_based.name op)
    (Model_based.revise_on op paper_alpha paper_t paper_p)
    expected

(* -- the Section 4.2 example ------------------------------------------------ *)

let paper2_t = f "a & b & c & d & e"
let paper2_p = f "~a | ~b"

let paper2_example op expected () =
  check_result_models
    (Model_based.name op)
    (Model_based.revise op paper2_t paper2_p)
    expected

(* -- Figure 1 containments --------------------------------------------------- *)

let containment (small, large) =
  qtest
    (Printf.sprintf "M(T *%s P) ⊆ M(T *%s P)" (Model_based.name small)
       (Model_based.name large))
    ~count:200 arb_tp
    (fun (t, p) ->
      models_subset (revise_models small t p) (revise_models large t p))

let figure1_tests =
  List.map containment
    [
      (Model_based.Dalal, Model_based.Forbus);
      (Model_based.Dalal, Model_based.Satoh);
      (Model_based.Dalal, Model_based.Winslett);
      (Model_based.Dalal, Model_based.Borgida);
      (Model_based.Dalal, Model_based.Weber);
      (Model_based.Forbus, Model_based.Winslett);
      (Model_based.Satoh, Model_based.Winslett);
      (Model_based.Satoh, Model_based.Borgida);
      (Model_based.Satoh, Model_based.Weber);
      (Model_based.Borgida, Model_based.Winslett);
    ]

(* Strictness: each non-containment must have a witness.  Fixed witnesses
   derived from the paper's example. *)
let test_containments_strict () =
  (* Weber ⊄ Winslett on the paper's example (Weber has model ∅). *)
  let web =
    Result.models
      (Model_based.revise_on Model_based.Weber paper_alpha paper_t paper_p)
  in
  let win =
    Result.models
      (Model_based.revise_on Model_based.Winslett paper_alpha paper_t paper_p)
  in
  check_bool "Weber not within Winslett here" false (models_subset web win);
  (* Winslett ⊄ Forbus on the paper's example (N3 = {b,d}). *)
  let forb =
    Result.models
      (Model_based.revise_on Model_based.Forbus paper_alpha paper_t paper_p)
  in
  check_bool "Winslett not within Forbus here" false (models_subset win forb)

(* -- Proposition 2.1 ----------------------------------------------------------

   As printed, the proposition claims that for every model M of T there is
   a model N of T * P with M Δ N ⊆ V(P).  That literal statement holds for
   the pointwise operators (Winslett, Forbus), whose selected set contains
   a closest model for *every* M; for the global operators (and Borgida's
   consistent case) a far-away M may contribute nothing to the revised set
   (e.g. T = (a∧b)∨(¬a∧¬b), P = b, M = ∅ under Dalal).  What every proof in
   the paper actually uses — and what holds for all six operators — is that
   every inclusion-minimal difference µ(M, P) is contained in V(P). *)

let prop_2_1_minimal_diffs =
  qtest "prop 2.1: minimal differences within V(P)" ~count:200 arb_tp
    (fun (t, p) ->
      let t_models = Models.enumerate vars4 t in
      let p_models = Models.enumerate vars4 p in
      let vp = Formula.vars p in
      p_models = []
      || List.for_all
           (fun m ->
             List.for_all
               (fun d -> Var.Set.subset d vp)
               (Revkb_oracle.Set_distance.mu m p_models))
           t_models)

let prop_2_1 op =
  qtest
    (Printf.sprintf "prop 2.1 literal (%s)" (Model_based.name op))
    ~count:150 arb_tp
    (fun (t, p) ->
      let t_models = Models.enumerate vars4 t in
      let revised = revise_models op t p in
      let vp = Formula.vars p in
      revised = []
      || List.for_all
           (fun m ->
             List.exists
               (fun n -> Var.Set.subset (Interp.sym_diff m n) vp)
               revised)
           t_models)

(* -- revision identity (T ∧ P consistent) -------------------------------------- *)

let revision_identity op =
  qtest
    (Printf.sprintf "%s: T*P = T∧P when consistent" (Model_based.name op))
    ~count:200 arb_tp
    (fun (t, p) ->
      let tp = Formula.conj2 t p in
      (not (Semantics.is_sat tp))
      || same_models (revise_models op t p) (Models.enumerate vars4 tp))

(* Winslett and Forbus are UPDATE operators: identity must fail somewhere. *)
let test_update_ops_violate_identity () =
  (* T = a | b (incomplete), P = a: Winslett updates each model separately:
     model {b} moves to closest a-models: {a,b}.  So T ◇ P has models
     {a}, {a,b} — but T ∧ P has models {a}, {a,b} too... choose sharper:
     T = ~a | ~b? Use the classic: T = (a & b) | (~a & ~b), P = a.
     T∧P = {a,b}.  Winslett: model {a,b} -> {a,b}; model {} -> closest
     a-model: {a}.  So winslett gives {a,b},{a} ≠ T∧P. *)
  let t = f "(a & b) | (~a & ~b)" and p = f "a" in
  let alpha = [ Var.named "a"; Var.named "b" ] in
  let win = Result.models (Model_based.revise_on Model_based.Winslett alpha t p) in
  let tp = Models.enumerate alpha (Formula.conj2 t p) in
  check_bool "winslett differs from T∧P" false (same_models win tp);
  let forb = Result.models (Model_based.revise_on Model_based.Forbus alpha t p) in
  check_bool "forbus differs from T∧P" false (same_models forb tp)

(* Repetition is absorbed: (T * P) * P = T * P for every operator (for
   the revision operators via R2; for the update operators via U2, since
   T * P |= P). *)
let repetition_absorbed op =
  qtest
    (Printf.sprintf "%s: (T*P)*P = T*P" (Model_based.name op))
    ~count:100 arb_tp
    (fun (t, p) ->
      let once = revise_models op t p in
      let p_models = Models.enumerate vars4 p in
      let twice = Model_based.select op once p_models in
      same_models once twice)

let prop_borgida_is_winslett_when_inconsistent =
  qtest "borgida = winslett on inconsistent T∧P" ~count:200 arb_tp
    (fun (t, p) ->
      Semantics.is_sat (Formula.conj2 t p)
      || same_models
           (revise_models Model_based.Borgida t p)
           (revise_models Model_based.Winslett t p))

let prop_borgida_is_conj_when_consistent =
  qtest "borgida = T∧P on consistent T∧P" ~count:200 arb_tp (fun (t, p) ->
      (not (Semantics.is_sat (Formula.conj2 t p)))
      || same_models
           (revise_models Model_based.Borgida t p)
           (Models.enumerate vars4 (Formula.conj2 t p)))

(* -- degenerate cases ----------------------------------------------------------- *)

let test_unsat_p () =
  List.iter
    (fun op ->
      let r = Model_based.revise_on op vars4 (f "x1") (f "x2 & ~x2") in
      check_bool (Model_based.name op ^ ": P unsat -> inconsistent") true
        (Result.models r = []))
    Model_based.all

let test_unsat_t () =
  List.iter
    (fun op ->
      let r = Model_based.revise_on op vars4 (f "x1 & ~x1") (f "x2") in
      check_bool (Model_based.name op ^ ": T unsat -> P") true
        (same_models (Result.models r) (Models.enumerate vars4 (f "x2"))))
    Model_based.all

(* -- formula-based: worlds, GFUV, WIDTIO, Nebel ---------------------------------- *)

let test_worlds_paper_example () =
  (* T1 = {a, b}, T2 = {a, a -> b}, P = ~b (Section 2.2.1). *)
  let t1 = Theory.of_string "a; b" and t2 = Theory.of_string "a; a -> b" in
  let p = f "~b" in
  check_int "W(T1,P)" 1 (List.length (Formula_based.worlds t1 p));
  check_int "W(T2,P)" 2 (List.length (Formula_based.worlds t2 p));
  check_formula_equiv "T1 * P" (f "a & ~b") (Formula_based.gfuv_formula t1 p);
  check_formula_equiv "T2 * P" (f "~b") (Formula_based.gfuv_formula t2 p);
  check_formula_equiv "T1 widtio" (f "a & ~b")
    (Theory.conj (Formula_based.widtio t1 p));
  check_formula_equiv "T2 widtio" (f "~b")
    (Theory.conj (Formula_based.widtio t2 p))

let test_worlds_properties () =
  let t = Theory.of_string "x1; x2; x1 -> x3; ~x3" in
  let p = f "~x1 | ~x2" in
  let ws = Formula_based.worlds t p in
  (* every world is consistent with p *)
  List.iter
    (fun w ->
      check_bool "world consistent" true
        (Semantics.is_sat (Formula.conj2 (Theory.conj w) p)))
    ws;
  (* maximality: adding any missing member breaks consistency *)
  List.iter
    (fun w ->
      List.iter
        (fun g ->
          if not (List.exists (Formula.equal g) w) then
            check_bool "maximal" false
              (Semantics.is_sat
                 (Formula.and_ [ Theory.conj w; g; p ])))
        t)
    ws;
  (* worlds are distinct *)
  let distinct =
    List.length ws
    = List.length (List.sort_uniq compare ws)
  in
  check_bool "distinct worlds" true distinct

let test_worlds_consistent_theory () =
  let t = Theory.of_string "x1; x2" in
  let ws = Formula_based.worlds t (f "x1 & x2") in
  check_int "single world = T" 1 (List.length ws);
  check_int "world has both members" 2 (List.length (List.hd ws))

let test_worlds_unsat_p () =
  check_int "no worlds" 0
    (List.length (Formula_based.worlds (Theory.of_string "x1") (f "x2 & ~x2")))

let test_worlds_cap () =
  let ex = Witness.Nebel_example.make 4 in
  match
    Formula_based.worlds ~cap:3 ex.Witness.Nebel_example.t1
      ex.Witness.Nebel_example.p1
  with
  | exception Formula_based.Cap_exceeded 3 -> ()
  | ws -> Alcotest.failf "expected cap, got %d worlds" (List.length ws)

let test_widtio_weaker_than_gfuv () =
  (* WIDTIO keeps only the formulas in every world: its result is always
     implied by the GFUV disjunction. *)
  let st = Random.State.make [| 31 |] in
  for _ = 1 to 50 do
    let t = Gen.theory st ~vars:vars4 ~members:4 ~depth:2 in
    let p = Gen.formula st ~vars:vars4 ~depth:2 in
    if Semantics.is_sat p then begin
      let gf = Formula_based.gfuv_formula t p in
      let wt = Theory.conj (Formula_based.widtio t p) in
      check_bool "gfuv entails widtio" true (Semantics.entails gf wt)
    end
  done

let test_gfuv_entails_consistent_with_formula () =
  let st = Random.State.make [| 37 |] in
  for _ = 1 to 40 do
    let t = Gen.theory st ~vars:vars4 ~members:3 ~depth:2 in
    let p = Gen.formula st ~vars:vars4 ~depth:2 in
    let q = Gen.formula st ~vars:vars4 ~depth:2 in
    if Semantics.is_sat p then
      check_bool "entailment agrees with naive formula" true
        (Formula_based.gfuv_entails t p q
        = Semantics.entails (Formula_based.gfuv_formula t p) q)
  done

let test_nebel_priorities () =
  (* High class {a} survives against low class {~a (as b->~a), b}:
     priorities make {a} immune. *)
  let high = Theory.of_string "a" in
  let low = Theory.of_string "~a; b" in
  let p = f "true" in
  let ws = Formula_based.nebel_worlds ~priorities:[ high; low ] p in
  check_int "one world" 1 (List.length ws);
  check_formula_equiv "a wins" (f "a & b")
    (Theory.conj (List.hd ws));
  (* single class = GFUV *)
  let t = Theory.of_string "a; ~a; b" in
  let single = Formula_based.nebel_worlds ~priorities:[ t ] (f "true") in
  let plain = Formula_based.worlds t (f "true") in
  check_int "single class = worlds" (List.length plain) (List.length single)

let test_syntax_sensitivity () =
  (* Logically equivalent theories, different revisions: the hallmark of
     formula-based operators. *)
  let t1 = Theory.of_string "a; b" and t2 = Theory.of_string "a; a -> b" in
  let p = f "~b" in
  check_bool "equivalent presentations" true
    (sat_equiv (Theory.conj t1) (Theory.conj t2));
  check_bool "different GFUV results" false
    (sat_equiv
       (Formula_based.gfuv_formula t1 p)
       (Formula_based.gfuv_formula t2 p));
  (* model-based operators are syntax-irrelevant *)
  List.iter
    (fun op ->
      check_bool
        (Model_based.name op ^ " irrelevant to syntax")
        true
        (same_models
           (Result.models (Model_based.revise op (Theory.conj t1) p))
           (Result.models (Model_based.revise op (Theory.conj t2) p))))
    Model_based.all

(* -- Operator dispatch ------------------------------------------------------------ *)

let test_operator_roundtrip_names () =
  List.iter
    (fun op ->
      match Operator.of_name (Operator.name op) with
      | Some op' ->
          check_bool "name roundtrip" true
            (Operator.name op = Operator.name op')
      | None -> Alcotest.failf "of_name failed for %s" (Operator.name op))
    Operator.
      [ Gfuv; Nebel []; Widtio; Winslett; Borgida; Forbus; Satoh; Dalal; Weber ]

(* The entailment a revision result answers by model check must be the
   one SAT gives on its DNF and on its minimized DNF. *)
let test_operator_entails_consistency () =
  let st = Random.State.make [| 41 |] in
  for _ = 1 to 30 do
    let t = Gen.theory st ~vars:vars4 ~members:3 ~depth:2 in
    let p = Gen.formula st ~vars:vars4 ~depth:2 in
    let q = Gen.formula st ~vars:vars4 ~depth:2 in
    if Semantics.is_sat p && Semantics.is_sat (Theory.conj t) then
      List.iter
        (fun op ->
          let r = Operator.revise op t p in
          let by_models = Result.entails r q in
          check_bool
            (Operator.name op ^ " entails paths agree")
            by_models
            (Semantics.entails (Result.to_dnf r) q);
          check_bool
            (Operator.name op ^ " minimized DNF agrees")
            by_models
            (Semantics.entails (Result.to_minimized_dnf r) q))
        [ Operator.Gfuv; Operator.Widtio; Operator.Dalal; Operator.Winslett ]
  done

let test_result_equal () =
  let a = [ Var.named "a"; Var.named "b" ] in
  let r = Result.make a [ interp_of_string "a"; interp_of_string "a,b" ] in
  check_bool "model order is irrelevant" true
    (Result.equal r
       (Result.make a [ interp_of_string "a,b"; interp_of_string "a" ]));
  check_bool "duplicates are irrelevant" true
    (Result.equal r
       (Result.make a
          [ interp_of_string "a"; interp_of_string "a,b"; interp_of_string "a" ]));
  check_bool "a different model set differs" false
    (Result.equal r (Result.make a [ interp_of_string "a" ]))

let test_partition () =
  Alcotest.(check (list (list int)))
    "partition sizes"
    [ [ 1; 2 ]; [ 3 ]; [ 4; 5 ] ]
    (Operator.partition [ 2; 1 ] [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check (list (list int)))
    "no sizes -> one class"
    [ [ 1; 2 ] ]
    (Operator.partition [] [ 1; 2 ])

(* -- iterated ----------------------------------------------------------------------- *)

let test_iterate_single_matches_revise () =
  let st = Random.State.make [| 43 |] in
  for _ = 1 to 40 do
    let t = Gen.formula st ~vars:vars4 ~depth:3 in
    let p = Gen.formula st ~vars:vars4 ~depth:3 in
    if Semantics.is_sat t && Semantics.is_sat p then
      List.iter
        (fun (op, mop) ->
          let single =
            Result.models (Model_based.revise_on mop vars4 t p)
          in
          let seq = Result.models (Iterate.revise_seq_on op vars4 [ t ] [ p ]) in
          check_bool "iterate m=1 = revise" true (same_models single seq))
        [
          (Operator.Dalal, Model_based.Dalal);
          (Operator.Winslett, Model_based.Winslett);
          (Operator.Weber, Model_based.Weber);
        ]
  done

let test_iterate_gfuv_rejected () =
  match Iterate.revise_seq Operator.Gfuv [ f "a" ] [ f "b" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "GFUV iteration should be rejected"

let test_iterate_empty_sequence () =
  let r = Iterate.revise_seq Operator.Dalal [ f "a & b" ] [] in
  check_bool "no revisions = T" true
    (same_models (Result.models r)
       (Models.enumerate (Result.alphabet r) (f "a & b")))

let test_iterate_dalal_chain () =
  (* a & b  *D ~a  *D ~b  -> single model {} *)
  let r = Iterate.revise_seq Operator.Dalal [ f "a & b" ] [ f "~a"; f "~b" ] in
  check_result_models "chain" r [ "" ]

let test_widtio_seq () =
  let t = Theory.of_string "a; b" in
  let t' = Iterate.widtio_seq t [ f "~a"; f "~b" ] in
  check_formula_equiv "widtio chain" (f "~a & ~b" ) (Theory.conj t')

let test_weber_can_coincide_with_p () =
  (* In the paper's worked example, Weber's revision coincides with P. *)
  let r = Model_based.revise_on Model_based.Weber paper_alpha paper_t paper_p in
  check_bool "Weber = P here" true
    (same_models (Result.models r) (Models.enumerate paper_alpha paper_p))

let test_distance_guards () =
  (match Revkb_oracle.Set_distance.k_pointwise Var.Set.empty [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k_pointwise on empty");
  match Revkb_oracle.Set_distance.k_global [] [ Var.Set.empty ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k_global on empty"

let test_widtio_members_come_from_t () =
  let st = Random.State.make [| 83 |] in
  for _ = 1 to 40 do
    let t = Gen.theory st ~vars:vars4 ~members:4 ~depth:2 in
    let p = Gen.formula st ~vars:vars4 ~depth:2 in
    if Semantics.is_sat p then begin
      let w = Formula_based.widtio t p in
      (* every member except the final P comes from T *)
      let rec all_but_last = function
        | [] | [ _ ] -> []
        | x :: rest -> x :: all_but_last rest
      in
      List.iter
        (fun g ->
          check_bool "member from T" true
            (List.exists (Formula.equal g) t))
        (all_but_last w)
    end
  done

(* -- Result ------------------------------------------------------------------------ *)

let test_result_api () =
  let r = Result.make vars4 [ interp_of_string "x1"; interp_of_string "x1" ] in
  check_int "dedup" 1 (Result.model_count r);
  check_bool "entails x1" true (Result.entails r (f "x1"));
  check_bool "not entails x2" false (Result.entails r (f "x2"));
  check_bool "model_check" true (Result.model_check r (interp_of_string "x1"));
  check_bool "model_check negative" false
    (Result.model_check r (interp_of_string "x2"));
  check_formula_equiv "dnf" (f "x1 & ~x2 & ~x3 & ~x4") (Result.to_dnf r);
  check_bool "minimized equivalent" true
    (sat_equiv (Result.to_dnf r) (Result.to_minimized_dnf r))

(* -- Section 7: generic data structures ----------------------------------------------- *)

let prop_structures_agree =
  qtest "formula/BDD/model-list structures agree" ~count:150
    (Helpers.arb_formula ~depth:3 vars4) (fun fm ->
      let mgr = Bdd.manager vars4 in
      let s_f = Structure.of_formula fm in
      let s_b = Structure.of_bdd mgr (Bdd.of_formula mgr fm) in
      let s_m = Structure.of_models vars4 (Models.enumerate vars4 fm) in
      Structure.agrees_with vars4 s_f s_b
      && Structure.agrees_with vars4 s_f s_m)

let test_structure_represents_revision () =
  let t = f "a & b & c" and p = f "~a | ~b" in
  let sem = Model_based.revise Model_based.Dalal t p in
  let alphabet = Result.alphabet sem in
  let s_m = Structure.of_models alphabet (Result.models sem) in
  check_bool "model-list represents T*P" true (Structure.represents s_m sem);
  let s_f = Structure.of_formula (Result.to_dnf sem) in
  check_bool "naive formula represents T*P" true (Structure.represents s_f sem);
  let s_bad = Structure.of_formula p in
  check_bool "P alone does not" false (Structure.represents s_bad sem)

let prop_bdd_eval =
  qtest "Bdd.eval = Interp.sat" ~count:200 (Helpers.arb_formula ~depth:4 vars4)
    (fun fm ->
      let mgr = Bdd.manager vars4 in
      let node = Bdd.of_formula mgr fm in
      List.for_all
        (fun m -> Bdd.eval mgr node m = Interp.sat m fm)
        (Interp.subsets vars4))

(* -- KM postulates ------------------------------------------------------------------- *)

let test_dalal_satisfies_revision_postulates () =
  let st = Random.State.make [| 47 |] in
  for _ = 1 to 60 do
    let t = Gen.formula st ~vars:vars4 ~depth:3 in
    let p = Gen.formula st ~vars:vars4 ~depth:3 in
    let q = Gen.formula st ~vars:vars4 ~depth:2 in
    if Semantics.is_sat t && Semantics.is_sat p then
      List.iter
        (fun c ->
          if not c.Postulates.holds then
            Alcotest.failf "Dalal violates %s on T=%a P=%a Q=%a"
              c.Postulates.name Formula.pp t Formula.pp p Formula.pp q)
        (Postulates.revision_postulates Model_based.Dalal vars4 ~t ~p ~q)
  done

let test_winslett_satisfies_update_postulates () =
  let st = Random.State.make [| 53 |] in
  for _ = 1 to 40 do
    let t = Gen.formula st ~vars:vars4 ~depth:2 in
    let t2 = Gen.formula st ~vars:vars4 ~depth:2 in
    let p = Gen.formula st ~vars:vars4 ~depth:2 in
    let p2 = Gen.formula st ~vars:vars4 ~depth:2 in
    if
      Semantics.is_sat t && Semantics.is_sat t2 && Semantics.is_sat p
      && Semantics.is_sat p2
    then
      List.iter
        (fun c ->
          if not c.Postulates.holds then
            Alcotest.failf "Winslett violates %s on T=%a T2=%a P=%a P2=%a"
              c.Postulates.name Formula.pp t Formula.pp t2 Formula.pp p
              Formula.pp p2)
        (Postulates.update_postulates Model_based.Winslett vars4 ~t ~t2 ~p ~p2)
  done

let test_winslett_violates_r2 () =
  (* The update/revision split: Winslett fails R2 on the classic
     instance. *)
  let t = f "(a & b) | (~a & ~b)" and p = f "a" in
  let alpha = [ Var.named "a"; Var.named "b" ] in
  let checks =
    Postulates.revision_postulates Model_based.Winslett alpha ~t ~p
      ~q:Formula.top
  in
  let r2 = List.find (fun c -> c.Postulates.name = "R2") checks in
  check_bool "R2 fails for Winslett" false r2.Postulates.holds

let test_dalal_violates_u8 () =
  (* Dalal is revision, not update: U8 fails somewhere.  Classic:
     T1 = a&b, T2 = ~a&~b, P = a != b.  Dalal((T1∨T2), P) computes a
     global minimum that loses T2's contribution?  Search a witness
     randomly instead to stay robust. *)
  let st = Random.State.make [| 59 |] in
  let found = ref false in
  (try
     for _ = 1 to 400 do
       let t = Gen.formula st ~vars:vars4 ~depth:2 in
       let t2 = Gen.formula st ~vars:vars4 ~depth:2 in
       let p = Gen.formula st ~vars:vars4 ~depth:2 in
       if Semantics.is_sat t && Semantics.is_sat t2 && Semantics.is_sat p
       then begin
         let checks =
           Postulates.update_postulates Model_based.Dalal vars4 ~t ~t2 ~p
             ~p2:Formula.top
         in
         let u8 = List.find (fun c -> c.Postulates.name = "U8") checks in
         if not u8.Postulates.holds then begin
           found := true;
           raise Exit
         end
       end
     done
   with Exit -> ());
  check_bool "U8 fails for Dalal somewhere" true !found

let () =
  Alcotest.run "revision"
    [
      ( "paper worked example (2.2.2)",
        [
          Alcotest.test_case "winslett" `Quick
            (paper_example Model_based.Winslett [ "a,b"; "c"; "b,d" ]);
          Alcotest.test_case "borgida" `Quick
            (paper_example Model_based.Borgida [ "a,b"; "c"; "b,d" ]);
          Alcotest.test_case "forbus" `Quick
            (paper_example Model_based.Forbus [ "a,b"; "b,d" ]);
          Alcotest.test_case "satoh" `Quick
            (paper_example Model_based.Satoh [ "a,b"; "c" ]);
          Alcotest.test_case "dalal" `Quick
            (paper_example Model_based.Dalal [ "a,b" ]);
          Alcotest.test_case "weber" `Quick
            (paper_example Model_based.Weber [ "a,b"; "c"; "b,d"; "" ]);
        ] );
      ( "paper worked example (4.2)",
        [
          Alcotest.test_case "satoh" `Quick
            (paper2_example Model_based.Satoh [ "b,c,d,e"; "a,c,d,e" ]);
          Alcotest.test_case "dalal" `Quick
            (paper2_example Model_based.Dalal [ "b,c,d,e"; "a,c,d,e" ]);
          Alcotest.test_case "forbus" `Quick
            (paper2_example Model_based.Forbus [ "b,c,d,e"; "a,c,d,e" ]);
          Alcotest.test_case "weber" `Quick
            (paper2_example Model_based.Weber
               [ "b,c,d,e"; "a,c,d,e"; "c,d,e" ]);
        ] );
      ( "figure 1 containments",
        figure1_tests
        @ [
            Alcotest.test_case "strictness witnesses" `Quick
              test_containments_strict;
          ] );
      ( "proposition 2.1",
        [
          prop_2_1_minimal_diffs;
          prop_2_1 Model_based.Winslett;
          prop_2_1 Model_based.Forbus;
        ] );
      ( "revision identity",
        [
          revision_identity Model_based.Dalal;
          revision_identity Model_based.Satoh;
          revision_identity Model_based.Borgida;
          revision_identity Model_based.Weber;
          Alcotest.test_case "update ops violate identity" `Quick
            test_update_ops_violate_identity;
          prop_borgida_is_winslett_when_inconsistent;
          prop_borgida_is_conj_when_consistent;
        ] );
      ( "repetition absorbed",
        List.map repetition_absorbed Model_based.all );
      ( "degenerate cases",
        [
          Alcotest.test_case "P unsat" `Quick test_unsat_p;
          Alcotest.test_case "T unsat" `Quick test_unsat_t;
        ] );
      ( "formula-based",
        [
          Alcotest.test_case "paper example worlds" `Quick
            test_worlds_paper_example;
          Alcotest.test_case "worlds properties" `Quick test_worlds_properties;
          Alcotest.test_case "consistent theory" `Quick
            test_worlds_consistent_theory;
          Alcotest.test_case "unsat P" `Quick test_worlds_unsat_p;
          Alcotest.test_case "cap is loud" `Quick test_worlds_cap;
          Alcotest.test_case "widtio weaker than gfuv" `Quick
            test_widtio_weaker_than_gfuv;
          Alcotest.test_case "gfuv entailment = naive formula" `Quick
            test_gfuv_entails_consistent_with_formula;
          Alcotest.test_case "nebel priorities" `Quick test_nebel_priorities;
          Alcotest.test_case "syntax sensitivity" `Quick
            test_syntax_sensitivity;
        ] );
      ( "operator dispatch",
        [
          Alcotest.test_case "names roundtrip" `Quick
            test_operator_roundtrip_names;
          Alcotest.test_case "entails paths agree" `Quick
            test_operator_entails_consistency;
          Alcotest.test_case "Result.equal" `Quick test_result_equal;
          Alcotest.test_case "partition" `Quick test_partition;
        ] );
      ( "iterated",
        [
          Alcotest.test_case "m=1 = single" `Quick
            test_iterate_single_matches_revise;
          Alcotest.test_case "gfuv rejected" `Quick test_iterate_gfuv_rejected;
          Alcotest.test_case "empty sequence" `Quick
            test_iterate_empty_sequence;
          Alcotest.test_case "dalal chain" `Quick test_iterate_dalal_chain;
          Alcotest.test_case "widtio chain" `Quick test_widtio_seq;
        ] );
      ( "misc",
        [
          Alcotest.test_case "weber = P on the worked example" `Quick
            test_weber_can_coincide_with_p;
          Alcotest.test_case "distance guards" `Quick test_distance_guards;
          Alcotest.test_case "widtio members from T" `Quick
            test_widtio_members_come_from_t;
        ] );
      ("result", [ Alcotest.test_case "api" `Quick test_result_api ]);
      ( "section 7 structures",
        [
          prop_structures_agree;
          Alcotest.test_case "represents a revision" `Quick
            test_structure_represents_revision;
          prop_bdd_eval;
        ] );
      ( "km postulates",
        [
          Alcotest.test_case "dalal satisfies R1-R6" `Quick
            test_dalal_satisfies_revision_postulates;
          Alcotest.test_case "winslett satisfies U1-U8" `Quick
            test_winslett_satisfies_update_postulates;
          Alcotest.test_case "winslett fails R2" `Quick
            test_winslett_violates_r2;
          Alcotest.test_case "dalal fails U8" `Quick test_dalal_violates_u8;
        ] );
    ]

let _ = vars5
