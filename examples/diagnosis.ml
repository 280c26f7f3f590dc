(* Iterated revision: fault diagnosis with streaming observations.

   A two-gate circuit: out = (in1 AND in2) OR bypass.  The knowledge base
   believes both gates healthy; test observations arrive one at a time
   and each contradicts something believed.  This is Section 5/6
   territory: the result of the whole sequence T * P1 * ... * Pm, the
   one-by-one naive representations, and the compact iterated
   constructions (Theorem 5.1 / formula (16)).

     dune exec examples/diagnosis.exe *)

open Logic
open Revision

let () =
  (* ok1/ok2: gates healthy.  The integrity constraints (a healthy gate
     drives its output high under the test vector) travel with every
     observation — the standard update practice: the world changes, the
     physics does not. *)
  let ic = "(ok1 -> and_out) & (ok2 -> or_out)" in
  let t =
    Parser.formula_of_string
      ("ok1 & ok2 & and_out & or_out & " ^ ic)
  in
  let observations =
    [
      ("test vector 1: AND stage output reads low", "~and_out & " ^ ic);
      ("test vector 2: OR stage output reads low", "~or_out & " ^ ic);
      ("gate 1 replaced; AND output high again", "ok1 & and_out & " ^ ic);
    ]
  in
  let ps = List.map (fun (_, s) -> Parser.formula_of_string s) observations in
  let alphabet = Models.alphabet_of (t :: ps) in

  Format.printf "Initial beliefs: %a@.@." Formula.pp t;

  (* One step at a time, watching the model set evolve (Winslett update:
     the device's state genuinely changes between observations). *)
  let step_models = ref (Models.enumerate alphabet t) in
  List.iteri
    (fun i (label, _) ->
      let p = List.nth ps i in
      step_models :=
        Model_based.select Model_based.Winslett !step_models
          (Models.enumerate alphabet p);
      Format.printf "%d. %s  (P%d = %a)@." (i + 1) label (i + 1) Formula.pp p;
      Format.printf "   beliefs now: %a@."
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
           Interp.pp)
        !step_models)
    observations;

  let final = Result.make alphabet !step_models in
  Format.printf "@.Diagnosis after all observations:@.";
  List.iter
    (fun (name, q) ->
      Format.printf "  %-28s %b@." name
        (Result.entails final (Parser.formula_of_string q)))
    [
      ("gate 1 known healthy again?", "ok1");
      ("gate 2 definitely faulty?", "~ok2");
      ("some gate was faulty?", "~ok1 | ~ok2");
    ];

  (* Representation sizes: the naive per-step DNF vs the compact iterated
     constructions. *)
  Format.printf "@.Representation sizes along the sequence:@.";
  let compact op prefix =
    Compact.Construct.(final t (iterate op (Kb.make t) prefix))
  in
  Format.printf "  %-6s %-12s %-18s %-18s@." "step" "naive DNF"
    "WIN_i (formula 16)" "Phi_i (Thm 5.1)";
  List.iteri
    (fun i _ ->
      let prefix = List.filteri (fun j _ -> j <= i) ps in
      let sem = Iterate.revise_seq_on Operator.Winslett alphabet [ t ] prefix in
      let naive = Formula.size (Result.to_dnf sem) in
      let win = compact Model_based.Winslett prefix in
      let phi = compact Model_based.Dalal prefix in
      Format.printf "  %-6d %-12d %-18d %-18d@." (i + 1) naive
        (Formula.size win) (Formula.size phi))
    ps;
  Format.printf
    "@.The compact forms stay query-equivalent to the semantics: %b / %b@."
    (Compact.Verify.query_equivalent
       (Iterate.revise_seq_on Operator.Winslett alphabet [ t ] ps)
       (compact Model_based.Winslett ps))
    (Compact.Verify.query_equivalent
       (Iterate.revise_seq_on Operator.Dalal alphabet [ t ] ps)
       (compact Model_based.Dalal ps))
