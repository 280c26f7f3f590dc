(* Quickstart: the paper's George & Bill office story (Section 1).

   You hear a voice in the office next door, so you believe George or
   Bill is in: T = g | b.  Then you see George in the corridor: P = ~g.

   Belief REVISION says the world did not change, your old evidence was
   partial: combine, conclude Bill is in (T ∧ P |= b).  Knowledge UPDATE
   says the world may have changed (George just left): you may no longer
   conclude anything about Bill.  Dalal's operator behaves as revision,
   Winslett's as update — run this to watch them disagree.

     dune exec examples/quickstart.exe *)

open Logic
open Revision

let () =
  let t = Parser.formula_of_string "g | b" in
  let p = Parser.formula_of_string "~g" in
  Format.printf "Knowledge base  T = %a@." Formula.pp t;
  Format.printf "New information P = %a@.@." Formula.pp p;

  let bill = Parser.formula_of_string "b" in
  List.iter
    (fun op ->
      let result = Model_based.revise op t p in
      Format.printf "%-10s T * P has models: %a@."
        (Model_based.name op)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
           Interp.pp)
        (Result.models result);
      Format.printf "%-10s   ... entails 'Bill is in'? %b@."
        "" (Result.entails result bill))
    Model_based.all;

  print_newline ();
  print_endline "Formula-based operators consume the theory's presentation:";
  let theory = Theory.of_string "g | b" in
  Format.printf "  GFUV:   T * P == %a@." Formula.pp
    (Formula.simplify (Formula_based.gfuv_formula theory p));
  Format.printf "  WIDTIO: T * P == %a@." Formula.pp
    (Formula.simplify (Theory.conj (Formula_based.widtio theory p)));

  print_newline ();
  print_endline "Compact representations (query-equivalent, new letters allowed):";
  let d =
    List.hd (Compact.Construct.iterate Model_based.Dalal (Kb.make t) [ p ])
  in
  Format.printf "  Theorem 3.4 for Dalal (k = %d): %a@."
    d.Compact.Construct.measure Formula.pp d.Compact.Construct.formula;
  let w = Compact.Construct.revise Model_based.Weber (Kb.make t) p in
  Format.printf "  Theorem 3.5 for Weber:          %a@." Formula.pp w
