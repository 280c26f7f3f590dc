(* Revision at scale: the compiled route on alphabets where model sets
   cannot be enumerated.

   A 60-attribute configuration database believes every feature flag is
   on; an incident report forces three of them off.  2^60 interpretations
   rule out any extensional computation — everything below runs through
   the paper's compact machinery: Theorem 3.4 compilation + SAT for
   inference, and the Section 2.2.4-style SAT model checker for
   M |= T * P.

     dune exec examples/large_scale.exe *)

open Logic

let () =
  let n = 60 in
  let flags = Gen.letters ~prefix:"flag" n in
  let t =
    Formula.conj2
      (Formula.and_ (List.map Formula.var flags))
      (* a few dependencies between flags, so T is not a bare cube *)
      (Formula.and_
         [
           Parser.formula_of_string "flag7 -> flag8";
           Parser.formula_of_string "flag20 & flag21 -> flag22";
         ])
  in
  let p = Parser.formula_of_string "~flag1 & ~flag2 & ~flag3" in
  Format.printf "T: %d letters, size %d;  P: %a@.@." n (Formula.size t)
    Formula.pp p;

  let t0 = Unix.gettimeofday () in
  let t' =
    List.hd
      (Compact.Construct.iterate Revision.Model_based.Dalal (Kb.make t) [ p ])
  in
  Format.printf
    "Theorem 3.4 compilation: k = %d, |T'| = %d, %.1f ms@."
    t'.Compact.Construct.measure t'.Compact.Construct.size
    (1000. *. (Unix.gettimeofday () -. t0));

  let ask q =
    let q = Parser.formula_of_string q in
    let t1 = Unix.gettimeofday () in
    let answer = Semantics.entails t'.Compact.Construct.formula q in
    Format.printf "  T *D P |= %-18s %-5b (%.1f ms)@."
      (Formula.to_string q) answer
      (1000. *. (Unix.gettimeofday () -. t1))
  in
  print_endline "Inference through the compiled representation:";
  ask "~flag1";
  ask "flag17";
  ask "flag8";
  ask "flag1";

  print_endline "\nSAT-based model checking (Section 2.2.4):";
  let all_on = Var.set_of_list flags in
  let expected =
    Var.Set.diff all_on
      (Var.set_of_list
         (List.map Var.named [ "flag1"; "flag2"; "flag3" ]))
  in
  let check name m =
    let t1 = Unix.gettimeofday () in
    let answer =
      Compact.Check.model_check Revision.Model_based.Dalal t p m
    in
    Format.printf "  %-42s %-5b (%.1f ms)@." name answer
      (1000. *. (Unix.gettimeofday () -. t1))
  in
  check "flags 1-3 off, everything else on" expected;
  check "additionally flag30 off (gratuitous)"
    (Var.Set.remove (Var.named "flag30") expected);
  check "only flag1 off (P violated)" (Var.Set.remove (Var.named "flag1") all_on);

  Format.printf
    "@.(2^%d interpretations: the extensional route of the small examples is\n\
    \ unavailable here — this is the paper's case for compact representations.)@."
    n
