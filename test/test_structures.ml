(* Data-structure substrate: interpretations (minc/maxc), the EXA
   counting formula, QMC minimization, and the ROBDD package. *)

open Logic
open Helpers

let vars4 = letters 4

(* -- Interp ----------------------------------------------------------------- *)

let test_sym_diff () =
  let m = interp_of_string "a,b" and n = interp_of_string "b,c" in
  check_bool "a,c" true
    (Var.Set.equal (Interp.sym_diff m n) (interp_of_string "a,c"));
  check_bool "neutral element" true
    (Var.Set.equal (Interp.sym_diff m Var.Set.empty) m)

let test_min_max_incl () =
  let sets =
    List.map interp_of_string [ "a"; "a,b"; "c"; "a,c"; "b,c"; "a,b,c" ]
  in
  let mins = Interp.min_incl sets in
  check_int "two minimal" 2 (List.length mins);
  check_bool "a minimal" true
    (List.exists (Var.Set.equal (interp_of_string "a")) mins);
  check_bool "c minimal" true
    (List.exists (Var.Set.equal (interp_of_string "c")) mins)

let test_min_incl_dedups () =
  let sets = List.map interp_of_string [ "a"; "a"; "a,b" ] in
  check_int "dedup" 1 (List.length (Interp.min_incl sets))

let test_subsets_count () =
  check_int "2^4 subsets" 16 (List.length (Interp.subsets vars4));
  check_int "empty alphabet" 1 (List.length (Interp.subsets []))

let test_minterm () =
  let m = interp_of_string "x1,x3" in
  let mt = Interp.minterm vars4 m in
  check_bool "own model" true (Interp.sat m mt);
  check_int "exactly one model" 1 (List.length (Models.enumerate vars4 mt))

(* -- EXA --------------------------------------------------------------------- *)

let exhaustive_exa_check n k =
  let xs = Gen.letters ~prefix:"ex" n and ys = Gen.letters ~prefix:"ey" n in
  let alphabet = xs @ ys in
  let fml, aux = Hamming.exa k xs ys in
  let expected =
    List.filter
      (fun m ->
        let d =
          List.fold_left2
            (fun acc x y ->
              if Var.Set.mem x m <> Var.Set.mem y m then acc + 1 else acc)
            0 xs ys
        in
        d = k)
      (Interp.subsets alphabet)
  in
  let got = models_sat alphabet fml in
  if not (same_models got expected) then
    Alcotest.failf "EXA(%d) over %d letters: %d models, expected %d" k n
      (List.length got) (List.length expected);
  (* auxiliaries must be fresh *)
  List.iter
    (fun w ->
      if List.mem w alphabet then Alcotest.fail "aux letter not fresh")
    aux

let test_exa_exhaustive () =
  for n = 0 to 4 do
    for k = 0 to n + 1 do
      exhaustive_exa_check n k
    done
  done

let test_exa_size_polynomial () =
  (* size of EXA(k, X, Y, W) should grow ~ n * k, definitely not 2^n *)
  let size n k =
    let xs = Gen.letters ~prefix:"px" n and ys = Gen.letters ~prefix:"py" n in
    Formula.size (fst (Hamming.exa k xs ys))
  in
  let s10 = size 10 5 and s20 = size 20 10 in
  check_bool "roughly quadratic growth" true
    (s20 < 8 * s10 && s20 > 2 * s10)

let test_exa_direct_agrees () =
  for n = 1 to 4 do
    for k = 0 to n do
      let xs = Gen.letters ~prefix:"dx" n and ys = Gen.letters ~prefix:"dy" n in
      let alphabet = xs @ ys in
      let direct = Hamming.exa_direct k xs ys in
      let laddered, _ = Hamming.exa k xs ys in
      if
        not
          (same_models
             (Models.enumerate alphabet direct)
             (models_sat alphabet laddered))
      then Alcotest.failf "exa_direct vs exa disagree at n=%d k=%d" n k
    done
  done

let test_dist_lt_direct () =
  let a = Gen.letters ~prefix:"qa" 2
  and b = Gen.letters ~prefix:"qb" 2
  and c = Gen.letters ~prefix:"qc" 2
  and d = Gen.letters ~prefix:"qd" 2 in
  let alphabet = a @ b @ c @ d in
  let fml = Hamming.dist_lt_direct (a, b) (c, d) in
  let dist xs ys m =
    List.fold_left2
      (fun acc x y -> if Var.Set.mem x m <> Var.Set.mem y m then acc + 1 else acc)
      0 xs ys
  in
  List.iter
    (fun m ->
      let expected = dist a b m < dist c d m in
      if Interp.sat m fml <> expected then
        Alcotest.failf "dist_lt mismatch on %a" Interp.pp m)
    (Interp.subsets alphabet)

let test_exa_totalizer_agrees () =
  for n = 0 to 4 do
    for k = 0 to n + 1 do
      let xs = Gen.letters ~prefix:"totx" n and ys = Gen.letters ~prefix:"toty" n in
      let alphabet = xs @ ys in
      let ladder, _ = Hamming.exa k xs ys in
      let tot, _ = Hamming.exa_totalizer k xs ys in
      if
        not
          (same_models
             (models_sat alphabet ladder)
             (models_sat alphabet tot))
      then Alcotest.failf "totalizer disagrees with ladder at n=%d k=%d" n k
    done
  done

let test_exa_totalizer_polynomial () =
  let size n k =
    let xs = Gen.letters ~prefix:"tpx" n and ys = Gen.letters ~prefix:"tpy" n in
    Formula.size (fst (Hamming.exa_totalizer k xs ys))
  in
  let s10 = size 10 5 and s20 = size 20 10 in
  check_bool "quadratic-ish growth" true (s20 < 8 * s10)

let test_dist_lt_poly_agrees () =
  for w1 = 0 to 2 do
    for w2 = 0 to 2 do
      if w1 + w2 > 0 then begin
        let a = Gen.letters ~prefix:"pda" w1 and b = Gen.letters ~prefix:"pdb" w1 in
        let c = Gen.letters ~prefix:"pdc" w2 and d = Gen.letters ~prefix:"pdd" w2 in
        let alphabet = a @ b @ c @ d in
        let direct = Hamming.dist_lt_direct (a, b) (c, d) in
        let poly, _ = Hamming.dist_lt (a, b) (c, d) in
        if
          not
            (same_models
               (Models.enumerate alphabet direct)
               (models_sat alphabet poly))
        then Alcotest.failf "dist_lt mismatch at widths %d/%d" w1 w2
      end
    done
  done

let test_pointwise_diff_subset () =
  let s1 = Gen.letters ~prefix:"s1_" 2
  and s2 = Gen.letters ~prefix:"s2_" 2
  and s3 = Gen.letters ~prefix:"s3_" 2
  and s4 = Gen.letters ~prefix:"s4_" 2 in
  let alphabet = s1 @ s2 @ s3 @ s4 in
  let fml = Hamming.pointwise_diff_subset s1 s2 s3 s4 in
  let diffset xs ys m =
    List.fold_left2
      (fun (i, acc) x y ->
        (i + 1, if Var.Set.mem x m <> Var.Set.mem y m then i :: acc else acc))
      (0, []) xs ys
    |> snd
  in
  List.iter
    (fun m ->
      let expected =
        List.for_all
          (fun i -> List.mem i (diffset s3 s4 m))
          (diffset s1 s2 m)
      in
      if Interp.sat m fml <> expected then
        Alcotest.failf "pointwise_diff_subset mismatch on %a" Interp.pp m)
    (Interp.subsets alphabet)

(* -- Horn upper bounds -------------------------------------------------------- *)

(* With [is_horn], the property that makes a model set Horn. *)
let closed_under_intersection ms =
  List.for_all
    (fun a ->
      List.for_all (fun b -> List.exists (Var.Set.equal (Var.Set.inter a b)) ms) ms)
    ms

let cnf_formula cnf =
  Formula.and_
    (List.map
       (fun c -> Formula.or_ (List.map (fun (s, x) -> Formula.lit s x) c))
       cnf)

let prop_horn_lub_sound =
  qtest "Horn LUB: closed, Horn, implied" ~count:200
    (arb_formula ~depth:3 vars4) (fun fm ->
      let closure = Horn.lub_models vars4 fm in
      let cnf = Horn.lub vars4 fm in
      closed_under_intersection closure
      && is_horn cnf
      && Models.entails_on vars4 fm (cnf_formula cnf)
      && same_models (Models.enumerate vars4 (cnf_formula cnf)) closure)

let prop_horn_lub_least =
  (* Leastness: the LUB entails every Horn clause implied by fm. *)
  qtest "Horn LUB: strongest Horn consequence" ~count:100
    (arb_formula ~depth:3 vars4) (fun fm ->
      let lub = cnf_formula (Horn.lub vars4 fm) in
      (* check against all Horn clauses of width <= 2 over vars4 *)
      let clauses =
        List.concat_map
          (fun x ->
            List.concat_map
              (fun y ->
                [
                  [ (false, x) ];
                  [ (true, x) ];
                  [ (false, x); (false, y) ];
                  [ (false, x); (true, y) ];
                ])
              vars4)
          vars4
      in
      List.for_all
        (fun c ->
          let cf = cnf_formula [ c ] in
          (not (Models.entails_on vars4 fm cf))
          || Models.entails_on vars4 lub cf)
        clauses)

(* The LUB is a closure: taking it again changes nothing, and
   [lub_size] counts the literals of the clauses it returns. *)
let prop_horn_lub_idempotent =
  qtest "Horn LUB: idempotent, lub_size counts its literals" ~count:150
    (arb_formula ~depth:3 vars4) (fun fm ->
      let cnf = Horn.lub vars4 fm in
      same_models (Horn.lub_models vars4 (cnf_formula cnf)) (Horn.lub_models vars4 fm)
      && Horn.lub_size vars4 fm
         = List.fold_left (fun acc c -> acc + List.length c) 0 cnf)

let test_horn_on_horn_input =
  Alcotest.test_case "Horn input is its own LUB" `Quick (fun () ->
      let fm = f "(x1 -> x2) & (x1 & x2 -> x3) & ~x4" in
      let closure = Horn.lub_models vars4 fm in
      check_bool "same models" true
        (same_models closure (Models.enumerate vars4 fm)))

(* -- QMC --------------------------------------------------------------------- *)

let prop_qmc_exact =
  qtest "QMC model-exact" ~count:300 (arb_formula ~depth:4 vars4) (fun fm ->
      let ms = Models.enumerate vars4 fm in
      equivalent_on vars4 fm (Qmc.minimize vars4 ms))

let prop_qmc_never_larger_than_naive =
  qtest "QMC <= naive DNF size" ~count:300 (arb_formula ~depth:4 vars4)
    (fun fm ->
      let ms = Models.enumerate vars4 fm in
      Qmc.minimized_size vars4 ms
      <= Formula.size (Models.dnf_of_models vars4 ms))

let test_qmc_corner_cases () =
  check_bool "no models -> false" true
    (Formula.equal (Qmc.minimize vars4 []) Formula.bot);
  check_bool "all models -> true" true
    (Formula.equal (Qmc.minimize vars4 (Interp.subsets vars4)) Formula.top);
  (* classic: xor cannot be compressed, parity needs 2^(n-1) minterms *)
  let xor2 = f "x1 != x2" in
  let ms = Models.enumerate [ Var.named "x1"; Var.named "x2" ] xor2 in
  check_int "xor minimized size" 4
    (Qmc.minimized_size [ Var.named "x1"; Var.named "x2" ] ms)

(* The CNF whose size [minimized_cnf_size] reports is the negation of
   the complement's minimized DNF: it must have exactly the models. *)
let prop_qmc_cnf_exact =
  qtest "QMC CNF model-exact" ~count:300 (arb_formula ~depth:4 vars4)
    (fun fm ->
      let ms = Models.enumerate vars4 fm in
      let complement = Qmc.minimize vars4 (Models.enumerate vars4 (Formula.not_ fm)) in
      equivalent_on vars4 fm (Formula.not_ complement)
      && Qmc.minimized_cnf_size vars4 ms = Formula.size complement)

let test_qmc_cnf_corner_cases () =
  (* CNF shines where DNF is bad: a single clause *)
  let clause = f "x1 | x2 | x3 | x4" in
  let ms = Models.enumerate vars4 clause in
  check_int "clause recovered" 4 (Qmc.minimized_cnf_size vars4 ms)

let test_qmc_known_minimization () =
  (* (a & b) | (a & ~b) minimizes to a *)
  let alphabet = [ Var.named "a"; Var.named "b" ] in
  let ms = Models.enumerate alphabet (f "(a & b) | (a & ~b)") in
  let minimized = Qmc.minimize alphabet ms in
  check_int "single literal" 1 (Formula.size minimized)

(* -- BDD --------------------------------------------------------------------- *)

let prop_bdd_models =
  qtest "BDD models = brute force" ~count:300 (arb_formula ~depth:4 vars4)
    (fun fm ->
      let mgr = Bdd.manager vars4 in
      let node = Bdd.of_formula mgr fm in
      same_models (Bdd.models mgr node) (Models.enumerate vars4 fm))

let prop_bdd_sat_count =
  qtest "BDD sat_count" ~count:300 (arb_formula ~depth:4 vars4) (fun fm ->
      let mgr = Bdd.manager vars4 in
      Bdd.sat_count mgr (Bdd.of_formula mgr fm)
      = List.length (Models.enumerate vars4 fm))

let prop_bdd_canonical =
  qtest "BDD canonicity: equivalent formulas share the node" ~count:200
    (arb_pair (arb_formula vars4) (arb_formula vars4))
    (fun (a, b) ->
      let mgr = Bdd.manager vars4 in
      let na = Bdd.of_formula mgr a and nb = Bdd.of_formula mgr b in
      Bdd.equal na nb = equivalent_on vars4 a b)

let test_bdd_constants () =
  let mgr = Bdd.manager vars4 in
  check_bool "true" true
    (Bdd.is_false (Bdd.not_ (Bdd.of_formula mgr Formula.top)));
  check_bool "false" true (Bdd.is_false (Bdd.of_formula mgr Formula.bot));
  check_int "constant node count" 0
    (Bdd.node_count (Bdd.of_formula mgr Formula.top));
  check_bool "taut collapses" true
    (Bdd.equal (Bdd.of_formula mgr (f "x1 | ~x1"))
       (Bdd.of_formula mgr Formula.top))

let test_bdd_order_sensitivity () =
  (* (x1&y1)|(x2&y2)|(x3&y3): interleaved order linear, separated order
     exponential — the standard order-sensitivity fact. *)
  let mk names =
    List.map Var.named names
  in
  let fml = f "(u1 & v1) | (u2 & v2) | (u3 & v3)" in
  let good = Bdd.manager (mk [ "u1"; "v1"; "u2"; "v2"; "u3"; "v3" ]) in
  let bad = Bdd.manager (mk [ "u1"; "u2"; "u3"; "v1"; "v2"; "v3" ]) in
  let ng = Bdd.node_count (Bdd.of_formula good fml) in
  let nb = Bdd.node_count (Bdd.of_formula bad fml) in
  check_bool "interleaved smaller" true (ng < nb)

let test_bdd_unknown_var_rejected () =
  let mgr = Bdd.manager [ Var.named "x1" ] in
  match Bdd.of_formula mgr (f "zz_unknown") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let () =
  Alcotest.run "structures"
    [
      ( "interp",
        [
          Alcotest.test_case "sym_diff" `Quick test_sym_diff;
          Alcotest.test_case "minc/maxc" `Quick test_min_max_incl;
          Alcotest.test_case "minc dedups" `Quick test_min_incl_dedups;
          Alcotest.test_case "subsets" `Quick test_subsets_count;
          Alcotest.test_case "minterm" `Quick test_minterm;
        ] );
      ( "exa",
        [
          Alcotest.test_case "exhaustive small" `Quick test_exa_exhaustive;
          Alcotest.test_case "polynomial size" `Quick
            test_exa_size_polynomial;
          Alcotest.test_case "direct variant agrees" `Quick
            test_exa_direct_agrees;
          Alcotest.test_case "dist_lt_direct" `Quick test_dist_lt_direct;
          Alcotest.test_case "pointwise_diff_subset" `Quick
            test_pointwise_diff_subset;
          Alcotest.test_case "totalizer agrees with ladder" `Quick
            test_exa_totalizer_agrees;
          Alcotest.test_case "dist_lt (polynomial) agrees with direct" `Quick
            test_dist_lt_poly_agrees;
          Alcotest.test_case "totalizer polynomial size" `Quick
            test_exa_totalizer_polynomial;
        ] );
      ( "horn",
        [
          prop_horn_lub_sound;
          prop_horn_lub_least;
          prop_horn_lub_idempotent;
          test_horn_on_horn_input;
        ] );
      ( "qmc",
        [
          prop_qmc_exact;
          prop_qmc_never_larger_than_naive;
          Alcotest.test_case "corner cases" `Quick test_qmc_corner_cases;
          prop_qmc_cnf_exact;
          Alcotest.test_case "cnf corner cases" `Quick
            test_qmc_cnf_corner_cases;
          Alcotest.test_case "known minimization" `Quick
            test_qmc_known_minimization;
        ] );
      ( "bdd",
        [
          prop_bdd_models;
          prop_bdd_sat_count;
          prop_bdd_canonical;
          Alcotest.test_case "constants" `Quick test_bdd_constants;
          Alcotest.test_case "order sensitivity" `Quick
            test_bdd_order_sensitivity;
          Alcotest.test_case "unknown var rejected" `Quick
            test_bdd_unknown_var_rejected;
        ] );
    ]
