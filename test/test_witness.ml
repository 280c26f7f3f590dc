(* Witness families: the reductions behind Theorems 3.1, 3.2, 3.3, 3.6,
   4.1, 6.5, the explosion examples, and the advice-machine pipeline. *)

open Logic
open Helpers

let st = Random.State.make [| 1995 |]

let random_sub_universe ?(max_clauses = 3) () =
  let k = 1 + Random.State.int st max_clauses in
  let idxs =
    List.sort_uniq compare (List.init k (fun _ -> Random.State.int st 8))
  in
  Witness.Threesat.sub_universe 3 idxs

let random_pi u =
  Witness.Threesat.random_instance st u
    ~nclauses:(1 + Random.State.int st (Witness.Threesat.size u))

(* -- Threesat ---------------------------------------------------------------- *)

let test_universe_counts () =
  (* 8 * C(n,3) clauses *)
  check_int "n=3" 8 (Witness.Threesat.size (Witness.Threesat.full_universe 3));
  check_int "n=4" 32 (Witness.Threesat.size (Witness.Threesat.full_universe 4));
  check_int "n=5" 80 (Witness.Threesat.size (Witness.Threesat.full_universe 5))

let test_universe_clauses_distinct () =
  let u = Witness.Threesat.full_universe 4 in
  let cs = Witness.Threesat.clauses u in
  check_int "distinct" (List.length cs)
    (List.length (List.sort_uniq compare cs))

let test_instance_sat () =
  let u = Witness.Threesat.full_universe 3 in
  (* a single clause is always satisfiable *)
  check_bool "single clause sat" true
    (Witness.Threesat.is_satisfiable (Witness.Threesat.instance u [ 0 ]));
  (* the full universe over 3 atoms is unsatisfiable: it contains all 8
     sign patterns of the clause on (b1,b2,b3) *)
  check_bool "full universe unsat" false
    (Witness.Threesat.is_satisfiable
       (Witness.Threesat.instance u (List.init 8 (fun i -> i))))

let test_instance_guards () =
  let u = Witness.Threesat.full_universe 3 in
  (match Witness.Threesat.instance u [ 99 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out of range");
  match Witness.Threesat.sub_universe 3 [ 1; 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicates"

(* -- Theorem 3.1 --------------------------------------------------------------- *)

let test_thm31_reduction () =
  for _ = 1 to 12 do
    let u = random_sub_universe () in
    let fam = Witness.Gfuv_family.make u in
    let pi = random_pi u in
    if not (Witness.Gfuv_family.reduction_holds fam pi) then
      Alcotest.failf "Theorem 3.1 fails on %a (sat=%b)"
        Witness.Threesat.pp_instance pi
        (Witness.Threesat.is_satisfiable pi)
  done

let test_thm31_sizes_polynomial () =
  (* |T_n| + |P_n| is polynomial in n (Θ(n³) clauses, constant size each). *)
  let size n =
    let fam = Witness.Gfuv_family.make (Witness.Threesat.full_universe n) in
    Theory.size fam.Witness.Gfuv_family.t_n
    + Formula.size fam.Witness.Gfuv_family.p_n
  in
  let s4 = size 4 and s8 = size 8 in
  (* Θ(n³): ratio for n 4→8 should be ≈ 8, certainly < 20 *)
  check_bool "polynomial growth" true (s8 < 20 * s4)

(* -- Theorem 3.2: GFUV = Satoh = Winslett = Weber on this family --------------- *)

let test_thm32_agreement () =
  for _ = 1 to 6 do
    let u = random_sub_universe ~max_clauses:2 () in
    let fam = Witness.Gfuv_family.make u in
    let pi = random_pi u in
    let q = Witness.Gfuv_family.q_pi fam pi in
    let t_conj = Theory.conj fam.Witness.Gfuv_family.t_n in
    let p = fam.Witness.Gfuv_family.p_n in
    let alphabet =
      Var.Set.elements
        (Var.Set.union (Formula.vars t_conj) (Formula.vars p))
    in
    let gfuv = Witness.Gfuv_family.entails_q fam pi in
    List.iter
      (fun op ->
        let r = Revision.Model_based.revise_on op alphabet t_conj p in
        check_bool
          (Revision.Model_based.name op ^ " agrees with GFUV")
          gfuv
          (Revision.Result.entails r q))
      [
        Revision.Model_based.Satoh;
        Revision.Model_based.Winslett;
        Revision.Model_based.Weber;
      ]
  done

(* -- Theorem 4.1 ----------------------------------------------------------------- *)

let test_thm41_reduction () =
  for _ = 1 to 6 do
    let u = random_sub_universe ~max_clauses:2 () in
    let fam = Witness.Gfuv_family.make_bounded u in
    let pi = random_pi u in
    if not (Witness.Gfuv_family.bounded_reduction_holds fam pi) then
      Alcotest.fail "Theorem 4.1 reduction failed"
  done

let test_thm41_p_constant_size () =
  let fam =
    Witness.Gfuv_family.make_bounded (Witness.Threesat.full_universe 3)
  in
  check_int "|P'| = 1" 1 (Formula.size fam.Witness.Gfuv_family.p')

(* -- Theorem 3.3 ------------------------------------------------------------------ *)

let test_thm33_reduction () =
  for _ = 1 to 5 do
    let u = random_sub_universe ~max_clauses:2 () in
    let fam = Witness.Forbus_family.make u in
    let pi = random_pi u in
    if not (Witness.Forbus_family.reduction_holds fam pi) then
      Alcotest.failf "Theorem 3.3 fails on %a (sat=%b)"
        Witness.Threesat.pp_instance pi
        (Witness.Threesat.is_satisfiable pi)
  done

let test_thm33_guard_matrix () =
  let u = Witness.Threesat.sub_universe 3 [ 0; 3 ] in
  let fam = Witness.Forbus_family.make u in
  check_int "n+2 rows" 5 (List.length fam.Witness.Forbus_family.c);
  List.iter
    (fun row -> check_int "row width" 2 (List.length row))
    fam.Witness.Forbus_family.c

let test_thm33_reduction_sat_at_scale () =
  (* |U| = 5 means a 29-letter alphabet — far beyond enumeration; the
     SAT-based model checker carries the reduction. *)
  let u = Witness.Threesat.sub_universe 3 [ 0; 2; 4; 5; 7 ] in
  let fam = Witness.Forbus_family.make u in
  for _ = 1 to 3 do
    let pi = random_pi u in
    if not (Witness.Forbus_family.reduction_holds_sat fam pi) then
      Alcotest.fail "Theorem 3.3 SAT-based reduction failed"
  done

(* -- Theorem 3.6 ------------------------------------------------------------------- *)

let test_thm36_reduction () =
  for _ = 1 to 8 do
    let u = random_sub_universe () in
    let fam = Witness.Dalal_family.make u in
    let pi = random_pi u in
    List.iter
      (fun op ->
        if not (Witness.Dalal_family.reduction_holds op fam pi) then
          Alcotest.failf "Theorem 3.6 fails for %s"
            (Revision.Model_based.name op))
      [ Revision.Model_based.Dalal; Revision.Model_based.Weber ]
  done

let test_thm36_reduction_sat_at_scale () =
  (* the full n = 4 universe: 32 guards, 40 letters *)
  let u = Witness.Threesat.full_universe 4 in
  let fam = Witness.Dalal_family.make u in
  for _ = 1 to 3 do
    let pi =
      Witness.Threesat.random_instance st u
        ~nclauses:(8 + Random.State.int st 12)
    in
    List.iter
      (fun op ->
        if not (Witness.Dalal_family.reduction_holds_sat op fam pi) then
          Alcotest.failf "Theorem 3.6 SAT-based reduction failed for %s"
            (Revision.Model_based.name op))
      [ Revision.Model_based.Dalal; Revision.Model_based.Weber ]
  done

let test_thm36_kmin_is_n () =
  (* In the proof: k_{T_n, P_n} = n. *)
  let u = Witness.Threesat.sub_universe 3 [ 0; 5 ] in
  let fam = Witness.Dalal_family.make u in
  check_int "k = n" 3
    (Compact.Measure.k
       (Compact.Measure.create (Kb.make fam.Witness.Dalal_family.t_n)
          fam.Witness.Dalal_family.p_n))

(* -- Theorem 6.5 -------------------------------------------------------------------- *)

let test_thm65_operators_agree () =
  for _ = 1 to 3 do
    let u = random_sub_universe ~max_clauses:2 () in
    let fam = Witness.Iterated_family.make u in
    check_bool "all six operators agree" true
      (Witness.Iterated_family.operators_agree fam)
  done

let test_thm65_reduction () =
  for _ = 1 to 4 do
    let u = random_sub_universe ~max_clauses:2 () in
    let fam = Witness.Iterated_family.make u in
    let pi = random_pi u in
    List.iter
      (fun op ->
        if not (Witness.Iterated_family.reduction_holds op fam pi) then
          Alcotest.failf "Theorem 6.5 fails for %s"
            (Revision.Model_based.name op))
      Revision.Model_based.all
  done

let test_thm65_ps_constant_size () =
  let fam = Witness.Iterated_family.make (Witness.Threesat.full_universe 3) in
  List.iter
    (fun p -> check_int "|P^i| = 2" 2 (Formula.size p))
    fam.Witness.Iterated_family.ps

let test_thm33_entailment_form () =
  (* T *F P |= Q_pi iff M_pi is NOT selected (Q_pi = ~minterm(M_pi)). *)
  let u = random_sub_universe ~max_clauses:2 () in
  let fam = Witness.Forbus_family.make u in
  let pi = random_pi u in
  let q = Witness.Forbus_family.q_pi fam pi in
  let r =
    Revision.Model_based.revise_on Revision.Model_based.Forbus
      (Witness.Forbus_family.alphabet fam)
      (Theory.conj fam.Witness.Forbus_family.t_n)
      fam.Witness.Forbus_family.p_n
  in
  check_bool "entailment form matches model-checking form"
    (not (Witness.Forbus_family.m_pi_selected fam pi))
    (Revision.Result.entails r q)

let test_gfuv_w_pi_shape () =
  let u = Witness.Threesat.sub_universe 3 [ 0; 1; 2 ] in
  let fam = Witness.Gfuv_family.make u in
  let pi = Witness.Threesat.instance u [ 0; 2 ] in
  (* W_pi has exactly one guard literal per universe clause *)
  check_int "guards" 3 (Formula.size (Witness.Gfuv_family.w_pi fam pi))

(* -- explosion examples --------------------------------------------------------------- *)

let test_nebel_example () =
  for m = 1 to 6 do
    let ex = Witness.Nebel_example.make m in
    check_int
      (Printf.sprintf "2^%d worlds" m)
      (1 lsl m)
      (Witness.Nebel_example.world_count ex)
  done;
  (* naive size grows exponentially: size(m) >= 2^m *)
  let s6 = Witness.Nebel_example.naive_size (Witness.Nebel_example.make 6) in
  check_bool "exponential naive size" true (s6 >= 1 lsl 6)

let test_winslett_example () =
  (* |W(T2, P2)| = 2^(m+1) - 1 while |P2| = 1. *)
  for m = 1 to 5 do
    let ex = Witness.Winslett_example.make m in
    check_int
      (Printf.sprintf "worlds at m=%d" m)
      ((1 lsl (m + 1)) - 1)
      (Witness.Winslett_example.world_count ex);
    check_int "P2 constant" 1 (Formula.size ex.Witness.Winslett_example.p2)
  done

(* -- advice machine ---------------------------------------------------------------------- *)

let test_advice_machine_decides_sat () =
  for _ = 1 to 6 do
    let u = random_sub_universe () in
    let machine = Witness.Advice.build u in
    let pi = random_pi u in
    check_bool "machine decides satisfiability"
      (Witness.Threesat.is_satisfiable pi)
      (Witness.Advice.decide_sat machine pi)
  done

let test_advice_size_measured () =
  let u = Witness.Threesat.sub_universe 3 [ 0; 1; 2 ] in
  let machine = Witness.Advice.build u in
  check_bool "advice nonempty" true (Witness.Advice.advice_size machine > 0)

let () =
  Alcotest.run "witness"
    [
      ( "threesat",
        [
          Alcotest.test_case "universe counts" `Quick test_universe_counts;
          Alcotest.test_case "clauses distinct" `Quick
            test_universe_clauses_distinct;
          Alcotest.test_case "satisfiability" `Quick test_instance_sat;
          Alcotest.test_case "guards" `Quick test_instance_guards;
        ] );
      ( "theorem 3.1 (GFUV)",
        [
          Alcotest.test_case "reduction" `Quick test_thm31_reduction;
          Alcotest.test_case "family size polynomial" `Quick
            test_thm31_sizes_polynomial;
        ] );
      ( "theorem 3.2 (Satoh/Winslett/Weber)",
        [ Alcotest.test_case "operator agreement" `Slow test_thm32_agreement ]
      );
      ( "theorem 4.1 (bounded GFUV)",
        [
          Alcotest.test_case "reduction" `Quick test_thm41_reduction;
          Alcotest.test_case "P constant size" `Quick
            test_thm41_p_constant_size;
        ] );
      ( "theorem 3.3 (Forbus)",
        [
          Alcotest.test_case "reduction" `Slow test_thm33_reduction;
          Alcotest.test_case "reduction at scale (SAT)" `Quick
            test_thm33_reduction_sat_at_scale;
          Alcotest.test_case "guard matrix shape" `Quick
            test_thm33_guard_matrix;
        ] );
      ( "theorem 3.6 (Dalal/Weber logical)",
        [
          Alcotest.test_case "reduction" `Quick test_thm36_reduction;
          Alcotest.test_case "reduction at scale (SAT)" `Quick
            test_thm36_reduction_sat_at_scale;
          Alcotest.test_case "k_min = n" `Quick test_thm36_kmin_is_n;
        ] );
      ( "theorem 6.5 (iterated bounded)",
        [
          Alcotest.test_case "operators agree" `Slow
            test_thm65_operators_agree;
          Alcotest.test_case "reduction" `Slow test_thm65_reduction;
          Alcotest.test_case "P^i constant size" `Quick
            test_thm65_ps_constant_size;
        ] );
      ( "family structure",
        [
          Alcotest.test_case "thm 3.3 entailment form" `Slow
            test_thm33_entailment_form;
          Alcotest.test_case "gfuv W_pi shape" `Quick test_gfuv_w_pi_shape;
        ] );
      ( "explosion examples",
        [
          Alcotest.test_case "nebel 2^m worlds" `Quick test_nebel_example;
          Alcotest.test_case "winslett constant P" `Quick
            test_winslett_example;
        ] );
      ( "advice machine (theorem 2.2)",
        [
          Alcotest.test_case "decides 3-SAT" `Quick
            test_advice_machine_decides_sat;
          Alcotest.test_case "advice size measured" `Quick
            test_advice_size_measured;
        ] );
    ]
