(* Shared test utilities: deterministic generators wrapped for QCheck and
   a few comparison helpers used across the suites. *)

open Logic

(* Tests run sequentially by default so failures reproduce without
   domains in the picture; the CI matrix overrides via REVKB_JOBS, and
   test_parallel forces specific job counts with [Pool.with_jobs]. *)
let () =
  if Sys.getenv_opt "REVKB_JOBS" = None then
    Revkb_parallel.Pool.set_default_jobs 1

let letters = Gen.letters

(* QCheck arbitrary for formulas over a fixed alphabet. *)
let arb_formula ?(depth = 3) vars =
  QCheck.make
    ~print:(fun f -> Formula.to_string f)
    (fun st -> Gen.formula st ~vars ~depth)

let arb_sat_formula ?(depth = 3) vars =
  QCheck.make
    ~print:(fun f -> Formula.to_string f)
    (fun st ->
      let rec go tries =
        let f = Gen.formula st ~vars ~depth in
        if Semantics.is_sat f then f
        else if tries > 50 then Formula.top
        else go (tries + 1)
      in
      go 0)

let random_interp st ~vars =
  List.fold_left
    (fun acc x -> if Random.State.bool st then Var.Set.add x acc else acc)
    Var.Set.empty vars

let arb_interp vars =
  QCheck.make
    ~print:(fun m -> Format.asprintf "%a" Interp.pp m)
    (fun st -> random_interp st ~vars)

let arb_pair a b = QCheck.pair a b
let arb_triple a b c = QCheck.triple a b c

(* Model-set equality independent of ordering. *)
let same_models a b =
  let norm = List.sort_uniq Var.Set.compare in
  let a = norm a and b = norm b in
  List.length a = List.length b && List.for_all2 Var.Set.equal a b

(* Projected models of [fm] over [vars] by the SAT mask walk. *)
let models_sat vars fm =
  let alpha = Interp_packed.alphabet vars in
  Interp_packed.interps_of_set alpha
    (Semantics.masks_sat (module Mask.Packed) alpha fm)

(* A pinnable comparison vector over [alphabet] on [env]: a row of copy
   letters no clause fixes, one difference bit per letter against its
   copy, and the ladder over the bits, all encoded once.  [pin n] is
   the assumption list setting the row to [n], so one ladder measures
   the distance to every reference point. *)
let pinned_ladder env alphabet =
  let ys =
    List.map
      (fun x -> Semantics.lit_of_var env (Var.copy_of ~suffix:"__pin" x))
      alphabet
  in
  let ds =
    List.map2
      (fun x y -> Semantics.Ladder.diff_lit env (Semantics.lit_of_var env x, y))
      alphabet ys
  in
  let pin n =
    List.map2
      (fun x y -> if Var.Set.mem x n then y else Satsolver.Lit.neg y)
      alphabet ys
  in
  (Semantics.Ladder.of_lits env ds, pin)

(* Least Hamming distance over [alphabet] from a reference point to a
   model of [fm] ([None] when [fm] is unsatisfiable): [fm] and a pinned
   cardinality ladder are encoded once on one session, each reference
   point is a set of pin assumptions on the live solver, and the
   threshold-free solve is the satisfiability pre-check that bounds the
   upward sweep of [within] probes. *)
let ladder_prober fm alphabet =
  let module S = Semantics.Session in
  let s = S.create ~vars:alphabet () in
  let lad, pin = pinned_ladder (S.env s) alphabet in
  fun n ->
    let assume = pin n in
    let rec probe k =
      if S.within ~assume s [ fm ] lad k then Some k else probe (k + 1)
    in
    if S.solve s ~extra:assume [ fm ] then probe 0 else None

let ladder_dist_to fm n alphabet = ladder_prober fm alphabet n

(* Logical equivalence by SAT, and over [vars] by the models engine:
   entailment both ways. *)
let sat_equiv a b = Semantics.entails a b && Semantics.entails b a

let equivalent_on vars a b =
  Models.entails_on vars a b && Models.entails_on vars b a

(* The definition of a Horn CNF: at most one positive literal per
   clause. *)
let is_horn (cnf : Cnf.t) =
  List.for_all (fun c -> List.length (List.filter fst c) <= 1) cnf

let models_subset a b =
  List.for_all (fun m -> List.exists (Var.Set.equal m) b) a

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck.Test.make ~count ~name arb prop)

let contains_substring s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

(* Alcotest check shorthand. *)
let check_bool name expected actual = Alcotest.(check bool) name expected actual
let check_int name expected actual = Alcotest.(check int) name expected actual

let check_formula_equiv name expected actual =
  if not (sat_equiv expected actual) then
    Alcotest.failf "%s: expected %a, got %a" name Formula.pp expected
      Formula.pp actual

let f = Parser.formula_of_string

let interp_of_string s =
  if String.trim s = "" then Var.Set.empty
  else
    Var.set_of_list
      (List.map (fun x -> Var.named (String.trim x)) (String.split_on_char ',' s))

let check_result_models name result expected =
  let exp =
    List.sort_uniq Var.Set.compare (List.map interp_of_string expected)
  in
  let got = Revision.Result.models result in
  if not (same_models got exp) then
    Alcotest.failf "%s: got %a, expected %a" name
      (Format.pp_print_list Interp.pp)
      got
      (Format.pp_print_list Interp.pp)
      exp

(* M |= T * P for each candidate of [ns], on one checker of the pair:
   what a served [check] asks of its cache entry. *)
let check_all op kb p ns =
  List.map (Compact.Check.checker op (Compact.Measure.create kb p)) ns
