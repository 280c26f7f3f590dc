(* Regenerates the paper's worked examples:
   - the Section 2.2.2 example (all six model-based operators on a fixed
     4-letter instance),
   - the Section 4.2 example (T = a&b&c&d&e, P = ~a|~b),
   - the Section 5 iterated-Weber example,
   - the Section 6 bounded-iterated Winslett example.
   Each printed row also reports agreement with the model sets the paper
   states. *)

open Logic
open Revision

let f = Parser.formula_of_string

let interp s =
  if String.trim s = "" then Var.Set.empty
  else
    Var.set_of_list
      (List.map (fun x -> Var.named (String.trim x))
         (String.split_on_char ',' s))

let show_models ms =
  if ms = [] then "(inconsistent)"
  else
    String.concat " "
      (List.map (fun m -> Format.asprintf "%a" Interp.pp m) ms)

let agrees ms expected =
  let exp = List.sort_uniq Var.Set.compare (List.map interp expected) in
  List.length ms = List.length exp && List.for_all2 Var.Set.equal ms exp

let run () =
  Report.section "Worked examples (Sections 2.2.2, 4.2, 5, 6)";

  Report.subsection
    "Section 2.2.2: T = a&b&c, P = (~a&~b&~d) | (~c&b&(a!=d)) over {a,b,c,d}";
  let t = f "a & b & c" in
  let p = f "(~a & ~b & ~d) | (~c & b & (a != d))" in
  let alpha = List.map Var.named [ "a"; "b"; "c"; "d" ] in
  let expected =
    [
      (Model_based.Winslett, [ "a,b"; "c"; "b,d" ]);
      (Model_based.Borgida, [ "a,b"; "c"; "b,d" ]);
      (Model_based.Forbus, [ "a,b"; "b,d" ]);
      (Model_based.Satoh, [ "a,b"; "c" ]);
      (Model_based.Dalal, [ "a,b" ]);
      (Model_based.Weber, [ "a,b"; "c"; "b,d"; "" ]);
    ]
  in
  Report.table
    [ "operator"; "models of T * P"; "matches paper" ]
    (List.map
       (fun (op, exp) ->
         let ms = Result.models (Model_based.revise_on op alpha t p) in
         [ Model_based.name op; show_models ms; Report.check (agrees ms exp) ])
       expected);

  Report.subsection "Section 4.2: T = a&b&c&d&e, P = ~a|~b";
  let t2 = f "a & b & c & d & e" and p2 = f "~a | ~b" in
  let expected2 =
    [
      (Model_based.Satoh, [ "b,c,d,e"; "a,c,d,e" ]);
      (Model_based.Dalal, [ "b,c,d,e"; "a,c,d,e" ]);
      (Model_based.Forbus, [ "b,c,d,e"; "a,c,d,e" ]);
      (Model_based.Weber, [ "b,c,d,e"; "a,c,d,e"; "c,d,e" ]);
    ]
  in
  Report.table
    [ "operator"; "models of T * P"; "matches paper" ]
    (List.map
       (fun (op, exp) ->
         let ms = Result.models (Model_based.revise op t2 p2) in
         [ Model_based.name op; show_models ms; Report.check (agrees ms exp) ])
       expected2);
  let dalal8 = Compact.Bounded.dalal t2 p2 in
  Report.para
    (Format.asprintf
       "  formula (8) representation of T *D P: %a  (size %d)" Formula.pp
       dalal8 (Formula.size dalal8));

  Report.subsection
    "Section 5: iterated Weber, T = x1&..&x5, P1 = ~x1|~x2, P2 = ~x5";
  let t5 = f "x1 & x2 & x3 & x4 & x5" in
  let ps = [ f "~x1 | ~x2"; f "~x5" ] in
  let sem = Iterate.revise_seq Operator.Weber [ t5 ] ps in
  let expected5 = [ "x1,x3,x4"; "x2,x3,x4"; "x3,x4" ] in
  Report.table
    [ "stage"; "result" ]
    [
      [ "semantic models"; show_models (Result.models sem) ];
      [ "matches paper"; Report.check (agrees (Result.models sem) expected5) ];
    ];
  let steps = Compact.Construct.iterate Model_based.Weber (Kb.make t5) ps in
  List.iteri
    (fun i s ->
      Report.para
        (Format.asprintf "  Psi_%d (|Omega_%d| = %d, size %d): %a" (i + 1)
           (i + 1) s.Compact.Construct.measure s.Compact.Construct.size
           Formula.pp s.Compact.Construct.formula))
    steps;
  let final = Compact.Construct.final t5 steps in
  Report.para
    (Printf.sprintf "  formula (10) query-equivalent to the semantics: %s"
       (Report.check (Compact.Verify.query_equivalent sem final)));

  Report.subsection "Section 6: bounded-iterated Winslett, T = x1&..&x5, P = ~x1";
  let p6 = f "~x1" in
  let sem6 = Iterate.revise_seq Operator.Winslett [ t5 ] [ p6 ] in
  Report.table
    [ "stage"; "result" ]
    [
      [ "semantic models"; show_models (Result.models sem6) ];
      [
        "matches paper";
        Report.check (agrees (Result.models sem6) [ "x2,x3,x4,x5" ]);
      ];
    ];
  let win = Compact.Construct.revise Model_based.Winslett (Kb.make t5) p6 in
  Report.para
    (Printf.sprintf
       "  formula (12) expanded: size %d; query-equivalent: %s"
       (Formula.size win)
       (Report.check (Compact.Verify.query_equivalent sem6 win)))
