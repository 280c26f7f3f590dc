(* A guided tour of the paper's size phenomena:

   1. Nebel's 2^m-worlds example — naive GFUV storage explodes;
   2. Winslett's constant-|P| variant — boundedness does not help
      formula-based revision;
   3. the Theorem 3.1 witness family and the advice-taking machine of
      Theorem 2.2, run end to end: load (exponential) advice, translate a
      3-SAT question into a revision query, answer by entailment;
   4. the Dalal/Weber asymmetry: compact under query equivalence,
      provably not under logical equivalence.

     dune exec examples/compactability_tour.exe *)

open Logic

let rule title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '-')

let () =
  rule "1. Nebel's example: T1 = {x_i, y_i}, P1 = AND(x_i != y_i)";
  List.iter
    (fun m ->
      let ex = Witness.Nebel_example.make m in
      Format.printf
        "  m = %d: input size %2d, %4d possible worlds, naive size %5d@." m
        (Theory.size ex.Witness.Nebel_example.t1 + Formula.size ex.Witness.Nebel_example.p1)
        (Witness.Nebel_example.world_count ex)
        (Witness.Nebel_example.naive_size ex))
    [ 2; 4; 6; 8 ];

  rule "2. Winslett's example: worlds explode although |P2| = 1";
  List.iter
    (fun m ->
      let ex = Witness.Winslett_example.make m in
      Format.printf "  m = %d: |T2| = %2d, |P2| = 1, %4d possible worlds@." m
        (Theory.size ex.Witness.Winslett_example.t2)
        (Witness.Winslett_example.world_count ex))
    [ 2; 3; 4; 5 ];

  rule "3. Theorem 2.2's advice-taking machine, executed";
  let u = Witness.Threesat.sub_universe 3 [ 0; 3; 5 ] in
  let machine = Witness.Advice.build u in
  Format.printf
    "  universe: %d clauses over b1..b3; advice = explicit T_n *GFUV P_n, size %d@."
    (Witness.Threesat.size u)
    (Witness.Advice.advice_size machine);
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 4 do
    let pi =
      Witness.Threesat.random_instance st u
        ~nclauses:(1 + Random.State.int st 3)
    in
    let machine_says = Witness.Advice.decide_sat machine pi in
    let solver_says = Witness.Threesat.is_satisfiable pi in
    Format.printf "  pi = %a: machine says %s, solver says %s  [%s]@."
      Witness.Threesat.pp_instance pi
      (if machine_says then "SAT" else "UNSAT")
      (if solver_says then "SAT" else "UNSAT")
      (if machine_says = solver_says then "agrees" else "DISAGREES");
  done;
  Format.printf
    "  (a poly-size advice would put 3-SAT in coNP/poly — Theorem 3.1's punchline)@.";

  rule "4. Dalal's asymmetry: query-compact, not logically compact";
  let t = Parser.formula_of_string "a & b & c & d" in
  let p = Parser.formula_of_string "~a & ~b" in
  let t' = Compact.Construct.revise Revision.Model_based.Dalal (Kb.make t) p in
  let sem = Revision.Model_based.revise Revision.Model_based.Dalal t p in
  Format.printf "  T = %a,  P = %a@." Formula.pp t Formula.pp p;
  Format.printf "  Theorem 3.4 representation (size %d, %d new letters):@."
    (Formula.size t')
    (Var.Set.cardinal
       (Var.Set.diff (Formula.vars t') (Formula.vars (Formula.conj2 t p))));
  Format.printf "    query-equivalent to T *D P? %b@."
    (Compact.Verify.query_equivalent sem t');
  Format.printf "    logically equivalent?      %b  (new letters are constrained)@."
    (Compact.Verify.logically_equivalent sem t');
  Format.printf
    "  Theorem 3.6: a poly-size *logically* equivalent form would decide@.";
  Format.printf
    "  3-SAT by model checking — the family is exercised in bench/table1.@."
