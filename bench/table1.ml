(* Table 1: is the (singly) revised knowledge base compactable?

   The table itself is a theorem grid; what a program can regenerate is,
   per cell:
   - YES cells: run the paper's construction and measure its size along a
     sweep — polynomial growth observed directly;
   - NO cells: machine-check the reduction that drives the conditional
     lower bound on sampled 3-SAT instances, and measure the concrete
     representation schemes (naive DNF, minimized DNF, ROBDD) exploding
     on the witness family. *)

open Logic
open Revision

let paper_table =
  (* operator, general-logical, general-query, bounded-logical, bounded-query *)
  [
    ("GFUV/Nebel", false, false, false, false);
    ("Winslett", false, false, true, true);
    ("Borgida", false, false, true, true);
    ("Forbus", false, false, true, true);
    ("Satoh", false, false, true, true);
    ("Dalal", false, true, true, true);
    ("Weber", false, true, true, true);
    ("WIDTIO", true, true, true, true);
  ]

let print_paper_table () =
  Report.subsection "Table 1 (paper verdicts, regenerated evidence below)";
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

(* -- YES evidence -------------------------------------------------------- *)

let dalal_sweep () =
  Report.subsection
    "[general/query YES: Dalal]  Theorem 3.4 representation size vs input";
  let st = Data.fresh_state () in
  let params = ref [] and values = ref [] in
  (* Structured instances whose size grows with the alphabet: random
     satisfiable 3-CNF with 2n (T) and n (P) clauses over n letters. *)
  let rec sat_cnf vars nclauses =
    let f = Gen.cnf3 st ~vars ~nclauses in
    if Semantics.is_sat f then f else sat_cnf vars nclauses
  in
  (* Instances are drawn sequentially (the RNG state is shared), then the
     Theorem 3.4 constructions — the expensive part, a distance probe per
     candidate k — are measured across the pool.  Row contents are sizes
     and counts, which do not depend on variable-creation order. *)
  let instances =
    List.map
      (fun n ->
        let vars = Gen.letters n in
        (* T = all letters true, plus clutter; P forces the first half
           false, so k_{T,P} grows with n and the EXA part is exercised *)
        let t =
          Formula.conj2
            (Formula.and_ (List.map Formula.var vars))
            (Formula.disj2 (sat_cnf vars (2 * n)) (Formula.var (List.hd vars)))
        in
        let p =
          Formula.and_
            (List.filteri (fun i _ -> i < n / 2) vars
            |> List.map (fun v -> Formula.not_ (Formula.var v)))
        in
        (n, t, p))
      [ 4; 6; 8; 10; 12; 14; 16 ]
  in
  let pool = Revkb_parallel.Pool.global () in
  let rows =
    Revkb_parallel.Pool.map_list pool
      (fun (n, t, p) ->
        let s =
          List.hd (Compact.Construct.iterate Model_based.Dalal (Kb.make t) [ p ])
        in
        let input = Formula.size t + Formula.size p in
        (* The new letters V(T') \ X: the copy Y of X and EXA's W *)
        let x = Formula.vars (Formula.conj2 t p) in
        let fresh =
          Var.Set.cardinal
            (Var.Set.diff (Formula.vars s.Compact.Construct.formula) x)
        in
        ( input,
          s.Compact.Construct.size,
          [
            string_of_int n;
            string_of_int input;
            string_of_int s.Compact.Construct.measure;
            string_of_int s.Compact.Construct.size;
            string_of_int fresh;
          ] ))
      instances
    |> List.map (fun (input, value, row) ->
           params := input :: !params;
           values := value :: !values;
           row)
  in
  Report.table
    [ "alphabet n"; "|T|+|P|"; "k_{T,P}"; "|T'| (Thm 3.4)"; "new letters" ]
    rows;
  Report.para
    ("  growth: "
    ^ Report.classify_growth (List.rev !params) (List.rev !values))

let weber_sweep () =
  Report.subsection
    "[general/query YES: Weber]  Theorem 3.5 size: T[Omega/Z] AND P";
  let rows =
    List.map
      (fun n ->
        let t =
          Formula.and_
            (List.map Formula.var (Gen.letters n) @ [ Parser.formula_of_string "x1 | x2" ])
        in
        let p = Parser.formula_of_string "~x1 | ~x2" in
        let w =
          List.hd (Compact.Construct.iterate Model_based.Weber (Kb.make t) [ p ])
        in
        [
          string_of_int (Formula.size t + Formula.size p);
          string_of_int w.Compact.Construct.measure;
          string_of_int w.Compact.Construct.size;
        ])
      [ 5; 10; 20; 40; 80; 160 ]
  in
  Report.table [ "|T|+|P|"; "|Omega|"; "|T'| (Thm 3.5)" ] rows;
  Report.para "  size stays <= |T| + |P|: a renaming plus a conjunction."

let widtio_sweep () =
  Report.subsection "[all YES: WIDTIO]  result never exceeds |T| + |P|";
  let st = Data.fresh_state () in
  let worst = ref 0.0 in
  let trials = 60 in
  for _ = 1 to trials do
    let vars = Gen.letters 4 in
    let t = Gen.theory st ~vars ~members:4 ~depth:2 in
    let p = Data.sat_formula st ~vars ~depth:2 in
    let out = Theory.size (Formula_based.widtio t p) in
    let input = Theory.size t + Formula.size p in
    if input > 0 then
      worst := max !worst (float_of_int out /. float_of_int input)
  done;
  Report.para
    (Printf.sprintf
       "  %d random theories: max |T *widtio P| / (|T|+|P|) = %.2f (<= 1 by construction)"
       trials !worst)

let bounded_sweep () =
  Report.subsection
    "[bounded YES: all model-based]  formulas (5)-(9) size, |V(P)| = 2";
  let p = Parser.formula_of_string "~x1 | ~x2" in
  let t_of n =
    Formula.and_ (List.map Formula.var (Gen.letters n))
  in
  let sizes = [ 10; 20; 40; 80 ] in
  let rows =
    List.map
      (fun op ->
        Model_based.name op
        :: List.map
             (fun n ->
               string_of_int
                 (Formula.size (Compact.Bounded.for_op op (t_of n) p)))
             sizes)
      Model_based.all
  in
  Report.table
    ("operator (formula)" :: List.map (fun n -> Printf.sprintf "|T|=%d" n) sizes)
    rows;
  Report.para
    "  all linear in |T| with a 2^O(|V(P)|) constant — Table 1's bounded YES\n\
    \  column, under logical equivalence (no new letters)."

(* -- NO evidence ----------------------------------------------------------- *)

let reductions () =
  Report.subsection
    "[NO cells]  machine-checked reductions on sampled 3-SAT instances";
  let st = Data.fresh_state () in
  (* Instance generation ([gen]) touches the shared RNG state and the
     variable intern table, so it stays sequential; the reduction checks
     themselves ([check]) each own their solvers and fan across the
     pool.  [gen] draws all [n] instances before any check runs, keeping
     the RNG stream — hence the sampled instances — identical to the
     sequential version at every job count. *)
  let count_ok n gen check =
    let inputs = List.init n (fun _ -> gen ()) in
    let pool = Revkb_parallel.Pool.global () in
    let oks = Revkb_parallel.Pool.map_list pool check inputs in
    Printf.sprintf "%d/%d" (List.length (List.filter Fun.id oks)) n
  in
  let thm31 =
    ( (fun () ->
        let u = Data.random_sub_universe st () in
        (Witness.Gfuv_family.make u, Data.random_pi st u)),
      fun (fam, pi) -> Witness.Gfuv_family.reduction_holds fam pi )
  in
  let thm41 =
    ( (fun () ->
        let u = Data.random_sub_universe st ~max_clauses:2 () in
        (Witness.Gfuv_family.make_bounded u, Data.random_pi st u)),
      fun (fam, pi) -> Witness.Gfuv_family.bounded_reduction_holds fam pi )
  in
  let thm33 =
    ( (fun () ->
        let u = Data.random_sub_universe st ~max_clauses:2 () in
        (Witness.Forbus_family.make u, Data.random_pi st u)),
      fun (fam, pi) -> Witness.Forbus_family.reduction_holds fam pi )
  in
  let thm36 op =
    ( (fun () ->
        let u = Data.random_sub_universe st () in
        (Witness.Dalal_family.make u, Data.random_pi st u)),
      fun (fam, pi) -> Witness.Dalal_family.reduction_holds op fam pi )
  in
  let thm32 =
    (* On the Theorem 3.1 family, GFUV/Satoh/Winslett/Weber inference must
       coincide (Eiter-Gottlob, used by Theorem 3.2). *)
    ( (fun () ->
        let u = Data.random_sub_universe st ~max_clauses:2 () in
        (Witness.Gfuv_family.make u, Data.random_pi st u)),
      fun (fam, pi) ->
        let q = Witness.Gfuv_family.q_pi fam pi in
        let t = Theory.conj fam.Witness.Gfuv_family.t_n in
        let p = fam.Witness.Gfuv_family.p_n in
        let alphabet =
          Var.Set.elements (Var.Set.union (Formula.vars t) (Formula.vars p))
        in
        let gfuv = Witness.Gfuv_family.entails_q fam pi in
        List.for_all
          (fun op ->
            Result.entails (Model_based.revise_on op alphabet t p) q = gfuv)
          [ Model_based.Satoh; Model_based.Winslett; Model_based.Weber ] )
  in
  (* at-scale variants through the SAT-based model checker: alphabets far
     beyond brute-force enumeration *)
  let thm33_sat =
    ( (fun () ->
        let u = Witness.Threesat.sub_universe 3 [ 0; 2; 4; 5; 7 ] in
        (Witness.Forbus_family.make u, Data.random_pi st u)),
      fun (fam, pi) -> Witness.Forbus_family.reduction_holds_sat fam pi )
  in
  let thm36_sat op =
    ( (fun () ->
        let u = Witness.Threesat.full_universe 4 in
        let fam = Witness.Dalal_family.make u in
        let pi =
          Witness.Threesat.random_instance st u
            ~nclauses:(8 + Random.State.int st 12)
        in
        (fam, pi)),
      fun (fam, pi) -> Witness.Dalal_family.reduction_holds_sat op fam pi )
  in
  let count_ok n (gen, check) = count_ok n gen check in
  Report.table
    [ "theorem"; "claim checked on instance"; "holds" ]
    [
      [ "3.1"; "pi sat iff T_n *GFUV P_n |= Q_pi"; count_ok 20 thm31 ];
      [ "3.2"; "Satoh/Winslett/Weber = GFUV inference here"; count_ok 6 thm32 ];
      [ "3.3"; "M_pi |= T_n *F P_n iff pi unsat"; count_ok 6 thm33 ];
      [
        "3.3 @29 letters";
        "same, via the SAT model checker (|U| = 5)";
        count_ok 8 thm33_sat;
      ];
      [
        "3.6 (Dalal)";
        "pi sat iff C_pi |= T_n *D P_n";
        count_ok 10 (thm36 Model_based.Dalal);
      ];
      [
        "3.6 (Weber)";
        "pi sat iff C_pi |= T_n *Web P_n";
        count_ok 10 (thm36 Model_based.Weber);
      ];
      [
        "3.6 @40 letters";
        "same, via the SAT model checker (full n = 4 universe)";
        count_ok 8 (thm36_sat Model_based.Dalal);
      ];
      [ "4.1"; "same as 3.1 with |P| = 1"; count_ok 10 thm41 ];
    ]

let incompressibility_sweep () =
  Report.subsection
    "[general/logical NO: Dalal/Weber]  Theorem 3.6 family: logical vs query representations";
  Report.para
    "  The NO entries are conditional asymptotic statements (no poly-size\n\
    \  representation unless PH collapses); what a program can exhibit is\n\
    \  (i) the reduction that drives the proof, machine-checked above, and\n\
    \  (ii) the measured gap between logically-equivalent and\n\
    \  query-equivalent representations on the witness family itself.";
  (* Prefix universes of the n=3 clause universe: at |U| = 8 the full
     universe is unsatisfiable and the model set of T_n *D P_n stops being
     trivial.  Model sets are computed semantically (brute force). *)
  let rows =
    List.map
      (fun m ->
        let u = Witness.Threesat.sub_universe 3 (List.init m (fun i -> i)) in
        let fam = Witness.Dalal_family.make u in
        let alphabet = Witness.Dalal_family.alphabet fam in
        let result =
          Model_based.revise_on Model_based.Dalal alphabet
            fam.Witness.Dalal_family.t_n fam.Witness.Dalal_family.p_n
        in
        let input =
          Formula.size fam.Witness.Dalal_family.t_n
          + Formula.size fam.Witness.Dalal_family.p_n
        in
        let models = Result.models result in
        let naive = Formula.size (Result.to_dnf result) in
        let qmc = Qmc.minimized_size alphabet models in
        let qmc_cnf =
          if List.length alphabet <= 10 then
            string_of_int (Qmc.minimized_cnf_size alphabet models)
          else "-"
        in
        let query_rep =
          Formula.size
            (Compact.Construct.revise Model_based.Dalal
               (Kb.make fam.Witness.Dalal_family.t_n)
               fam.Witness.Dalal_family.p_n)
        in
        [
          string_of_int m;
          string_of_int input;
          string_of_int (List.length models);
          string_of_int naive;
          string_of_int qmc;
          qmc_cnf;
          string_of_int query_rep;
        ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Report.table
    [
      "|U|";
      "|T_n|+|P_n|";
      "models";
      "naive size";
      "QMC DNF";
      "QMC CNF";
      "|T'| (Thm 3.4, query)";
    ]
    rows;
  Report.para
    "  at this toy scale the minimized logical representations remain small\n\
    \  (satisfiability of tiny clause sets is almost always positive); the\n\
    \  naive one already explodes.  The asymptotic separation cannot be\n\
    \  observed directly -- it is exactly the content of Theorem 3.6.";
  Report.subsection
    "[Section 7 aside]  representation-class dependence on a structured family";
  Report.para
    "  c disjoint unsatisfiable guard cores (all four sign patterns of a\n\
    \  2-clause): the revised KB's model set is \"every core misses a\n\
    \  guard\".  Two-level (DNF) logical representations grow by ~8x per\n\
    \  core while the BDD grows by a constant -- which is why Section 7\n\
    \  states non-compactability for *any* poly-time-checkable structure\n\
    \  rather than for one concrete scheme.";
  let rows =
    List.map
      (fun c ->
        let guards =
          List.init c (fun ci ->
              List.init 4 (fun j ->
                  Var.named (Printf.sprintf "g%d_%d" (ci + 1) (j + 1))))
        in
        let all = List.concat guards in
        let ok s =
          List.for_all
            (fun core -> List.exists (fun g -> not (Var.Set.mem g s)) core)
            guards
        in
        let configs = List.filter ok (Interp.subsets all) in
        let qmc =
          if c <= 2 then string_of_int (Qmc.minimized_size all configs)
          else "-"
        in
        let bdd =
          let mgr = Bdd.manager all in
          Bdd.node_count (Bdd.of_models mgr configs)
        in
        [
          string_of_int c;
          string_of_int (4 * c);
          string_of_int (List.length configs);
          qmc;
          string_of_int bdd;
        ])
      [ 1; 2; 3 ]
  in
  Report.table
    [ "cores c"; "guards"; "models"; "QMC size"; "BDD nodes" ] rows

let run () =
  Report.section "Table 1: single revision compactability";
  print_paper_table ();
  dalal_sweep ();
  weber_sweep ();
  widtio_sweep ();
  bounded_sweep ();
  reductions ();
  incompressibility_sweep ()
