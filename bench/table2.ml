(* Table 2: is the iteratively revised knowledge base compactable?

   YES cells: the Section 5 constructions (Dalal Phi_m, Weber formula
   (10)) and the Section 6 bounded-iterated constructions (formulas
   (12)-(16)) are built for growing m and their sizes recorded — additive
   growth per revision step is the observable.
   NO cells: the Theorem 6.5 family is machine-checked and its revised
   knowledge base measured under the concrete representation schemes. *)

open Logic
open Revision

let paper_table =
  [
    ("GFUV/Nebel", false, false, false, false);
    ("Winslett", false, false, false, true);
    ("Borgida", false, false, false, true);
    ("Forbus", false, false, false, true);
    ("Satoh", false, false, false, true);
    ("Dalal", false, true, false, true);
    ("Weber", false, true, false, true);
    ("WIDTIO", true, true, true, true);
  ]

let print_paper_table () =
  Report.subsection "Table 2 (paper verdicts, regenerated evidence below)";
  Report.table
    [
      "formalism";
      "general/logical";
      "general/query";
      "bounded/logical";
      "bounded/query";
    ]
    (List.map
       (fun (name, a, b, c, d) ->
         [
           name;
           Report.verdict a;
           Report.verdict b;
           Report.verdict c;
           Report.verdict d;
         ])
       paper_table)

let iterated_general_sweep () =
  Report.subsection
    "[general/query YES: Dalal, Weber]  Phi_m and formula (10) size vs m";
  let t =
    Parser.formula_of_string "(x1 | x2) & (x3 -> x4) & (x1 -> x3) & x4"
  in
  let cycle =
    [|
      Parser.formula_of_string "~x1 | ~x2";
      Parser.formula_of_string "x1 & x3";
      Parser.formula_of_string "~x3 | ~x4";
      Parser.formula_of_string "x2 -> x4";
    |]
  in
  let ps m = List.init m (fun i -> cycle.(i mod Array.length cycle)) in
  let rows =
    List.map
      (fun m ->
        let ps = ps m in
        let final op =
          Compact.Construct.(final t (iterate op (Kb.make t) ps))
        in
        let input =
          Formula.size t
          + List.fold_left (fun acc p -> acc + Formula.size p) 0 ps
        in
        [
          string_of_int m;
          string_of_int input;
          string_of_int (Formula.size (final Model_based.Dalal));
          string_of_int (Formula.size (final Model_based.Weber));
        ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Report.table
    [ "m"; "|T|+sum|P^i|"; "|Phi_m| (Thm 5.1)"; "|Psi_m| (formula 10)" ]
    rows;
  Report.para "  both grow additively with m: polynomial in |T| + sum |P^i|."

let iterated_bounded_sweep () =
  Report.subsection
    "[bounded/query YES: pointwise ops]  formulas (12)-(16) size vs m, |V(P^i)| = 2";
  let t = Formula.and_ (List.map Formula.var (Gen.letters 6)) in
  let cycle =
    [|
      Parser.formula_of_string "~x1 | ~x2";
      Parser.formula_of_string "x1 & x2";
      Parser.formula_of_string "x1 != x2";
    |]
  in
  let ps m = List.init m (fun i -> cycle.(i mod Array.length cycle)) in
  let specs =
    [
      ("winslett (16)", Model_based.Winslett);
      ("borgida", Model_based.Borgida);
      ("forbus (14)", Model_based.Forbus);
      ("satoh (13*)", Model_based.Satoh);
    ]
  in
  let ms = [ 1; 2; 4; 8; 12 ] in
  let rows =
    List.map
      (fun (name, op) ->
        name
        :: List.map
             (fun m ->
               string_of_int
                 (Formula.size
                    Compact.Construct.(
                      final t (iterate op (Kb.make t) (ps m)))))
             ms)
      specs
  in
  Report.table
    ("operator" :: List.map (fun m -> Printf.sprintf "m=%d" m) ms)
    rows;
  Report.para
    "  (13*): the paper's formula (13) is unsound — see DESIGN.md erratum —\n\
    \  so the Satoh step uses the corrected delta-guard construction, which\n\
    \  keeps the same additive growth.";
  (* correctness spot-check on the largest m with small alphabet *)
  let vars = Gen.letters 4 in
  let st2 = Data.fresh_state () in
  let t2 = Data.sat_formula st2 ~vars ~depth:3 in
  let pvars2 = List.filteri (fun i _ -> i < 2) vars in
  let ps2 = List.init 4 (fun _ -> Data.sat_formula st2 ~vars:pvars2 ~depth:2) in
  (* four independent semantic-vs-compact equivalence checks: fan them
     across the pool (each builds its own revision and solver state) *)
  let all_ok =
    List.for_all Fun.id
      (Revkb_parallel.Pool.map_list
         (Revkb_parallel.Pool.global ())
         (fun op ->
           let sem = Iterate.revise_seq_on op vars [ t2 ] ps2 in
           Compact.Verify.query_equivalent sem
             Compact.Construct.(
               final t2 (iterate (Operator.model_op op) (Kb.make t2) ps2)))
         Operator.[ Winslett; Borgida; Forbus; Satoh ])
  in
  Report.para
    (Printf.sprintf "  query-equivalence spot-check at m=4: %s"
       (Report.check all_ok))

let thm65_sweep () =
  Report.subsection
    "[bounded/logical NO]  Theorem 6.5 family: n constant-size revisions";
  let st = Data.fresh_state () in
  let pool = Revkb_parallel.Pool.global () in
  (* Families are drawn sequentially (shared RNG + intern table); the
     agreement and reduction checks — each a pile of independent
     revisions — fan across the pool. *)
  let count_true l = List.length (List.filter Fun.id l) in
  let agree_checks = 3 in
  let agree_fams =
    List.init agree_checks (fun _ ->
        Witness.Iterated_family.make (Data.random_sub_universe st ~max_clauses:2 ()))
  in
  let agree_ok =
    count_true
      (Revkb_parallel.Pool.map_list pool Witness.Iterated_family.operators_agree
         agree_fams)
  in
  Report.para
    (Printf.sprintf
       "  all six operators produce identical model sets on the family: %d/%d"
       agree_ok agree_checks);
  let red_checks = 6 in
  let red_instances =
    List.init red_checks (fun _ ->
        let u = Data.random_sub_universe st ~max_clauses:2 () in
        let fam = Witness.Iterated_family.make u in
        (fam, Data.random_pi st u))
  in
  let red_ok =
    count_true
      (Revkb_parallel.Pool.map_list pool
         (fun (fam, pi) ->
           Witness.Iterated_family.reduction_holds Model_based.Dalal fam pi
           && Witness.Iterated_family.reduction_holds Model_based.Winslett fam
                pi)
         red_instances)
  in
  Report.para
    (Printf.sprintf
       "  pi sat iff C_pi |= T_n * P^1 * ... * P^n (Dalal & Winslett): %d/%d"
       red_ok red_checks);
  Report.para "  representation sizes of the iterated result (Dalal path):";
  (* Deterministic families, built sequentially; the per-|U| measurement
     (iterated revision + QMC + BDD, each with its own manager/solver)
     is the expensive part and runs pool-wide. *)
  let fams =
    List.map
      (fun m ->
        ( m,
          Witness.Iterated_family.make
            (Witness.Threesat.sub_universe 3 (List.init m (fun i -> i))) ))
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let rows =
    Revkb_parallel.Pool.map_list pool
      (fun (m, fam) ->
        let alphabet = Witness.Iterated_family.alphabet fam in
        let result =
          Iterate.revise_seq_on Operator.Dalal alphabet
            [ fam.Witness.Iterated_family.t_n ]
            fam.Witness.Iterated_family.ps
        in
        let models = Result.models result in
        let input =
          Formula.size fam.Witness.Iterated_family.t_n
          + List.fold_left
              (fun acc p -> acc + Formula.size p)
              0 fam.Witness.Iterated_family.ps
        in
        let qmc = Qmc.minimized_size alphabet models in
        let bdd =
          let mgr = Bdd.manager alphabet in
          Bdd.node_count (Bdd.of_models mgr models)
        in
        (* the query-equivalent Phi_m stays small on the same sequence *)
        let phi =
          let t = fam.Witness.Iterated_family.t_n in
          let ps = fam.Witness.Iterated_family.ps in
          Compact.Construct.(final t (iterate Model_based.Dalal (Kb.make t) ps))
        in
        [
          string_of_int m;
          string_of_int input;
          string_of_int (List.length models);
          string_of_int qmc;
          string_of_int bdd;
          string_of_int (Formula.size phi);
        ])
      fams
  in
  Report.table
    [
      "|U|";
      "input size";
      "models";
      "QMC size";
      "BDD nodes";
      "|Phi_m| (query-equiv)";
    ]
    rows;
  Report.para
    "  logical-equivalence schemes (QMC/BDD) track the SAT-shaped model\n\
    \  set; the query-equivalent Phi_m stays additive — Table 2's bounded\n\
    \  row: NO under logical equivalence, YES under query equivalence."

let exponential_entry_point () =
  Report.subsection
    "Where the exponential enters: QBF matrix vs Theorem 6.3 expansion";
  Report.para
    "  Formula (14)'s quantified representation is polynomial for ANY\n\
    \  |V(P)| (the DIST < DIST matrix uses totalizer counters); only the\n\
    \  quantifier expansion of Theorem 6.3 pays 2^|V(P)| — the exact\n\
    \  boundary between Table 1's bounded and general columns.";
  let rec qbf_size (q : Qbf.t) =
    match q with
    | Qbf.Prop f -> Formula.size f
    | Qbf.Forall (_, body) | Qbf.Exists (_, body) -> qbf_size body
    | Qbf.Conj qs -> List.fold_left (fun a b -> a + qbf_size b) 0 qs
  in
  let rows =
    List.map
      (fun k ->
        let vars = Gen.letters (k + 4) in
        let pvars = List.filteri (fun i _ -> i < k) vars in
        let t = Formula.and_ (List.map Formula.var vars) in
        let p =
          Formula.or_
            (List.map (fun v -> Formula.not_ (Formula.var v)) pvars)
        in
        let win_q = Compact.Construct.winslett_qbf t p in
        let for_q = Compact.Construct.forbus_qbf t p in
        let expanded =
          if k <= 6 then
            string_of_int (Formula.size (Qbf.expand win_q))
          else "-"
        in
        [
          string_of_int k;
          string_of_int (qbf_size win_q);
          string_of_int (qbf_size for_q);
          expanded;
        ])
      [ 1; 2; 3; 4; 5; 6; 8; 12; 16 ]
  in
  Report.table
    [
      "|V(P)|";
      "QBF matrix (12)";
      "QBF matrix (14)";
      "expanded (12)";
    ]
    rows

let widtio_iterated () =
  Report.subsection "[all YES: WIDTIO]  iterated WIDTIO stays linear";
  let st = Data.fresh_state () in
  let vars = Gen.letters 4 in
  let t = Gen.theory st ~vars ~members:4 ~depth:2 in
  let rows =
    List.map
      (fun m ->
        let ps =
          List.init m (fun _ -> Data.sat_formula st ~vars ~depth:2)
        in
        let t' = Iterate.widtio_seq t ps in
        let input =
          Theory.size t
          + List.fold_left (fun acc p -> acc + Formula.size p) 0 ps
        in
        [ string_of_int m; string_of_int input; string_of_int (Theory.size t') ])
      [ 1; 2; 4; 8; 16 ]
  in
  Report.table [ "m"; "input size"; "|T * P^1 * ... * P^m|" ] rows

let run () =
  Report.section "Table 2: iterated revision compactability";
  print_paper_table ();
  iterated_general_sweep ();
  iterated_bounded_sweep ();
  exponential_entry_point ();
  thm65_sweep ();
  widtio_iterated ()
