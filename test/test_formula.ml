(* Formula layer: smart constructors, size metrics, substitution,
   evaluation, NNF, simplification, parsing and printing. *)

open Logic
open Helpers

let vars4 = letters 4

(* -- smart constructors -------------------------------------------------- *)

let test_constructor_folding () =
  check_bool "and [] = top" true (Formula.equal (Formula.and_ []) Formula.top);
  check_bool "or [] = bot" true (Formula.equal (Formula.or_ []) Formula.bot);
  check_bool "and absorbs false" true
    (Formula.equal (Formula.and_ [ f "a"; Formula.bot ]) Formula.bot);
  check_bool "or absorbs true" true
    (Formula.equal (Formula.or_ [ f "a"; Formula.top ]) Formula.top);
  check_bool "and drops true" true
    (Formula.equal (Formula.and_ [ Formula.top; f "a" ]) (f "a"));
  check_bool "double negation" true
    (Formula.equal (Formula.not_ (Formula.not_ (f "a"))) (f "a"));
  check_bool "imp true lhs" true
    (Formula.equal (Formula.imp Formula.top (f "a")) (f "a"));
  check_bool "imp false lhs" true
    (Formula.equal (Formula.imp Formula.bot (f "a")) Formula.top);
  check_bool "iff with true" true
    (Formula.equal (Formula.iff (f "a") Formula.top) (f "a"));
  check_bool "xor with false" true
    (Formula.equal (Formula.xor (f "a") Formula.bot) (f "a"))

let test_flattening () =
  let g = Formula.and_ [ Formula.and_ [ f "a"; f "b" ]; f "c" ] in
  match g with
  | Formula.And [ _; _; _ ] -> ()
  | _ -> Alcotest.failf "nested conjunction not flattened: %a" Formula.pp g

(* -- size ----------------------------------------------------------------- *)

let test_size_counts_variable_occurrences () =
  (* The paper's |W|: number of occurrences of propositional variables. *)
  check_int "a & (b | ~a)" 3 (Formula.size (f "a & (b | ~a)"));
  check_int "constants are free" 0 (Formula.size (f "true & false"));
  check_int "iff counts both sides" 4 (Formula.size (f "(a == b) & (a != b)"))

let test_vars () =
  let vs = Formula.vars (f "a & (b -> c) & ~a") in
  check_int "three letters" 3 (Var.Set.cardinal vs)

(* -- substitution --------------------------------------------------------- *)

let test_rename_simultaneous () =
  (* The paper's example: Q = x1 & (x2 | ~x3), Q[{x1,x3}/{y1,~y3}] =
     y1 & (x2 | ~~y3). *)
  let q = f "x1 & (x2 | ~x3)" in
  let subst =
    Formula.substitute (fun v ->
        match Var.name v with
        | "x1" -> Some (f "y1")
        | "x3" -> Some (f "~y3")
        | _ -> None)
  in
  check_formula_equiv "paper example" (f "y1 & (x2 | y3)") (subst q);
  (* simultaneity: swapping a and b must not cascade *)
  let swapped =
    Formula.rename
      [ (Var.named "a", Var.named "b"); (Var.named "b", Var.named "a") ]
      (f "a & ~b")
  in
  check_bool "swap" true (Formula.equal swapped (f "b & ~a"))

let test_negate_vars () =
  let h = Var.set_of_list [ Var.named "a" ] in
  check_formula_equiv "F[H/~H]" (f "~a & b")
    (Formula.negate_vars h (f "a & b"))

let prop_substitution_lemma =
  (* Proposition 4.2: M |= F iff M Δ H |= F[H/H̄]. *)
  qtest "proposition 4.2" ~count:500
    (arb_triple (arb_formula vars4) (arb_interp vars4) (arb_interp vars4))
    (fun (fm, m, h) ->
      Interp.sat m fm
      = Interp.sat (Interp.sym_diff m h) (Formula.negate_vars h fm))

(* [substitute] against evaluation: F[x/G] holds in M iff F holds in M
   with x set to G's value there. *)
let prop_substitute_semantics =
  let x = List.hd vars4 in
  qtest "substitute = eval with the letter's new value" ~count:400
    (arb_triple (arb_formula vars4) (arb_formula vars4) (arb_interp vars4))
    (fun (fm, g, m) ->
      let fm' =
        Formula.substitute (fun v -> if Var.compare v x = 0 then Some g else None) fm
      in
      let m' = if Interp.sat m g then Var.Set.add x m else Var.Set.remove x m in
      Interp.sat m fm' = Interp.sat m' fm)

let prop_assign_vars_semantics =
  let pinned = Var.Map.of_seq (List.to_seq [ (List.nth vars4 0, true); (List.nth vars4 2, false) ]) in
  qtest "assign_vars = eval with the letters pinned" ~count:400
    (arb_pair (arb_formula vars4) (arb_interp vars4))
    (fun (fm, m) ->
      let fm' = Formula.assign_vars pinned fm in
      let m' =
        Var.Map.fold
          (fun x b acc -> if b then Var.Set.add x acc else Var.Set.remove x acc)
          pinned m
      in
      Interp.sat m fm' = Interp.sat m' fm
      && Var.Map.for_all (fun x _ -> not (Var.Set.mem x (Formula.vars fm'))) pinned)

let prop_negate_vars_involution =
  qtest "negate_vars involution" ~count:300
    (arb_pair (arb_formula vars4) (arb_interp vars4))
    (fun (fm, h) ->
      equivalent_on vars4 fm
        (Formula.negate_vars h (Formula.negate_vars h fm)))

(* -- evaluation / simplify ------------------------------------------ *)

let prop_simplify_preserves_models =
  qtest "simplify equivalence" ~count:500 (arb_formula ~depth:4 vars4)
    (fun fm -> equivalent_on vars4 fm (Formula.simplify fm))

let test_eval_basic () =
  let env l = List.mem l (List.map Var.named [ "a"; "c" ]) in
  check_bool "a & ~b" true (Formula.eval env (f "a & ~b"));
  check_bool "a -> b" false (Formula.eval env (f "a -> b"));
  check_bool "a == c" true (Formula.eval env (f "a == c"));
  check_bool "a != c" false (Formula.eval env (f "a != c"))

(* -- parser / printer ------------------------------------------------------ *)

let prop_print_parse_roundtrip =
  qtest "print/parse roundtrip" ~count:500 (arb_formula ~depth:4 vars4)
    (fun fm ->
      Formula.equal fm (Parser.formula_of_string (Formula.to_string fm)))

let test_parser_precedence () =
  check_bool "imp right assoc" true
    (Formula.equal (f "a -> b -> c") (f "a -> (b -> c)"));
  check_bool "and binds tighter than or" true
    (Formula.equal (f "a & b | c") (f "(a & b) | c"));
  check_bool "or binds tighter than imp" true
    (Formula.equal (f "a | b -> c") (f "(a | b) -> c"));
  check_bool "iff loosest" true
    (Formula.equal (f "a -> b == b -> a") (f "(a -> b) == (b -> a)"));
  check_bool "negation tight" true (Formula.equal (f "~a & b") (f "(~a) & b"))

let test_parser_alternative_syntax () =
  check_bool "ascii ops" true
    (Formula.equal (f "a /\\ b \\/ c") (f "a & b | c"));
  check_bool "<-> as ==" true (Formula.equal (f "a <-> b") (f "a == b"));
  check_bool "xor keyword" true (Formula.equal (f "a xor b") (f "a != b"));
  check_bool "not keyword" true (Formula.equal (f "not a") (f "~a"));
  check_bool "words" true (Formula.equal (f "a and b or c") (f "a & b | c"));
  check_bool "T/F" true (Formula.equal (f "T & ~F") Formula.top)

let test_parser_errors () =
  List.iter
    (fun s ->
      match Parser.formula_of_string s with
      | exception Parser.Syntax_error _ -> ()
      | g ->
          Alcotest.failf "expected syntax error on %S, got %a" s Formula.pp g)
    [ "a &"; "(a"; "a b"; "&"; ""; "a @ b" ]

(* Every syntax error — lexical or grammatical — must pinpoint the
   offending token by character offset. *)
let test_parser_error_offsets () =
  let expect_msg src part =
    match Parser.formula_of_string src with
    | exception Parser.Syntax_error msg ->
        check_bool
          (Printf.sprintf "%S: %S mentions %S" src msg part)
          true
          (Helpers.contains_substring msg part)
    | g -> Alcotest.failf "expected syntax error on %S, got %a" src Formula.pp g
  in
  expect_msg "a @ b" "at offset 2";
  expect_msg "a @ b" "unexpected character '@'";
  expect_msg "ab & cd | )" "at offset 10";
  expect_msg "ab & cd | )" "unexpected )";
  expect_msg "(a & b" "at offset 6";
  expect_msg "(a & b" "expected ) but found <eof>";
  expect_msg "a &" "at offset 3";
  expect_msg "longname -> ->" "at offset 12";
  match Parser.theory_of_string "a & b\nc d" with
  | exception Parser.Syntax_error msg ->
      check_bool
        (Printf.sprintf "theory: %S points at second line" msg)
        true
        (Helpers.contains_substring msg "at offset 8")
  | _ -> Alcotest.fail "expected syntax error in theory"

let test_theory_parsing () =
  let t = Parser.theory_of_string "a & b\n# comment\nc -> d; e" in
  check_int "three members" 3 (List.length t);
  let t2 = Parser.theory_of_string "" in
  check_int "empty theory" 0 (List.length t2)

(* -- Theory ---------------------------------------------------------------- *)

let test_theory_ops () =
  let t = Theory.of_string "a; a -> b" in
  check_formula_equiv "conj" (f "a & (a -> b)") (Theory.conj t);
  check_int "vars" 2 (Var.Set.cardinal (Theory.vars t));
  check_int "size" 3 (Theory.size t)

let test_pp_precedence_roundtrip_edge_cases () =
  List.iter
    (fun src ->
      let fm = f src in
      check_bool src true
        (Formula.equal fm (Parser.formula_of_string (Formula.to_string fm))))
    [
      "~(a & b)";
      "~(a | b) & c";
      "(a -> b) -> c";
      "a != (b != c)";
      "~(a == b)";
      "(a | b) & (c | d)";
      "~~~a";
      "a & (b -> c) | ~d";
    ]

let test_node_count () =
  check_int "literal" 1 (Formula.node_count (f "a"));
  check_int "negated literal" 2 (Formula.node_count (f "~a"));
  check_int "binary and" 3 (Formula.node_count (f "a & b"))

let test_constants_have_no_vars () =
  check_int "true" 0 (Var.Set.cardinal (Formula.vars Formula.top));
  check_int "false" 0 (Var.Set.cardinal (Formula.vars Formula.bot))

let test_substitute_through_connectives () =
  let sub =
    Formula.substitute (fun v ->
        if Var.name v = "a" then Some (f "x & y") else None)
  in
  check_formula_equiv "imp" (f "(x & y) -> b") (sub (f "a -> b"));
  check_formula_equiv "iff" (f "(x & y) == b") (sub (f "a == b"));
  check_formula_equiv "xor" (f "(x & y) != b") (sub (f "a != b"))

let test_theory_mixed_separators () =
  let t = Parser.theory_of_string "a & b ; c

# note
d -> e;
f" in
  check_int "four members" 4 (List.length t)

(* -- Var ---------------------------------------------------------------- *)

let test_var_interning () =
  check_bool "same name same var" true
    (Var.compare (Var.named "zq1") (Var.named "zq1") = 0);
  check_bool "distinct names" false
    (Var.compare (Var.named "zq1") (Var.named "zq2") = 0);
  let w1 = Var.fresh () and w2 = Var.fresh () in
  check_bool "fresh distinct" false (Var.compare w1 w2 = 0);
  check_bool "copy_of suffixes" true
    (String.equal (Var.name (Var.copy_of ~suffix:"_k" (Var.named "zq1"))) "zq1_k")

let () =
  Alcotest.run "formula"
    [
      ( "constructors",
        [
          Alcotest.test_case "constant folding" `Quick
            test_constructor_folding;
          Alcotest.test_case "flattening" `Quick test_flattening;
        ] );
      ( "size",
        [
          Alcotest.test_case "variable occurrences" `Quick
            test_size_counts_variable_occurrences;
          Alcotest.test_case "vars" `Quick test_vars;
        ] );
      ( "substitution",
        [
          Alcotest.test_case "simultaneous rename" `Quick
            test_rename_simultaneous;
          Alcotest.test_case "negate_vars" `Quick test_negate_vars;
          prop_substitution_lemma;
          prop_negate_vars_involution;
          prop_substitute_semantics;
          prop_assign_vars_semantics;
        ] );
      ( "transforms",
        [
          prop_simplify_preserves_models;
          Alcotest.test_case "eval" `Quick test_eval_basic;
        ] );
      ( "parser",
        [
          prop_print_parse_roundtrip;
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "alternative syntax" `Quick
            test_parser_alternative_syntax;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "error offsets" `Quick test_parser_error_offsets;
          Alcotest.test_case "theories" `Quick test_theory_parsing;
        ] );
      ( "theory",
        [ Alcotest.test_case "operations" `Quick test_theory_ops ] );
      ( "edge cases",
        [
          Alcotest.test_case "pp precedence roundtrips" `Quick
            test_pp_precedence_roundtrip_edge_cases;
          Alcotest.test_case "node_count" `Quick test_node_count;
          Alcotest.test_case "constants varless" `Quick
            test_constants_have_no_vars;
          Alcotest.test_case "substitute through connectives" `Quick
            test_substitute_through_connectives;
          Alcotest.test_case "theory separators" `Quick
            test_theory_mixed_separators;
        ] );
      ("var", [ Alcotest.test_case "interning" `Quick test_var_interning ]);
    ]
