(* The multi-word packed engine and the 62-letter word boundary.

   Three layers: (1) unit + property tests of the Interp_wide
   primitives against the Var.Set and one-word oracles; (2) boundary
   differentials at n ∈ {61, 62, 63, 64, 65, 100, 127, 128} — enumeration,
   all five distance measures and all six operators must agree across
   the one-word engine (where it still fits), the multi-word engine,
   and the legacy list oracle, at one and at four worker domains;
   (3) the 100-letter acceptance run: enumeration, Dalal min-distance,
   and Compact.Check on the multi-word path. *)

open Logic
open Revision
open Helpers
open Revkb_oracle
module IW = Interp_wide
module IP = Interp_packed
module Pool = Revkb_parallel.Pool

let vars100 = letters 100
let alpha100 = IP.alphabet vars100

let rand_interp st vars =
  Var.set_of_list (List.filter (fun _ -> Random.State.bool st) vars)

let arb_interp100 =
  QCheck.make
    ~print:(fun m -> Format.asprintf "%a" Interp.pp m)
    (fun st -> rand_interp st vars100)

(* -- primitives ------------------------------------------------------------ *)

let test_word_layout () =
  check_int "one word at 62" 1 (IW.words (IP.alphabet (letters 62)));
  check_int "two words at 63" 2 (IW.words (IP.alphabet (letters 63)));
  check_int "two words at 124" 2 (IW.words (IP.alphabet (letters 124)));
  check_int "three words at 125" 3 (IW.words (IP.alphabet (letters 125)));
  check_bool "62 letters fit one word" true (IP.fits (IP.alphabet (letters 62)));
  check_bool "63 letters do not" false (IP.fits (IP.alphabet (letters 63)))

let test_sweep_boundary () =
  (* n = max_letters: masks still fit, but 2^n does not — the sweep must
     refuse loudly instead of wrapping into the sign bit. *)
  check_int "max_sweep_letters" (Sys.int_size - 2) IP.max_sweep_letters;
  let alpha = IP.alphabet (letters IP.max_letters) in
  check_bool "fits at the boundary" true (IP.fits alpha);
  match IP.sweep alpha Formula.bot with
  | exception Invalid_argument msg ->
      check_bool "message names the limit" true
        (contains_substring msg (string_of_int IP.max_sweep_letters))
  | _ -> Alcotest.fail "sweep beyond max_sweep_letters must raise"

let prop_roundtrip =
  qtest "pack/unpack roundtrip at 100 letters" ~count:200 arb_interp100
    (fun m ->
      let w = IW.pack alpha100 m in
      Var.Set.equal m (IW.unpack alpha100 w)
      && IW.popcount w = Var.Set.cardinal m)

let prop_hamming =
  qtest "wide hamming = |sym_diff|" ~count:200
    (arb_pair arb_interp100 arb_interp100) (fun (m, n) ->
      IW.hamming (IW.pack alpha100 m) (IW.pack alpha100 n)
      = Legacy.hamming m n)

let prop_subset =
  qtest "wide subset = Var.Set.subset" ~count:200
    (arb_pair arb_interp100 arb_interp100) (fun (m, n) ->
      IW.subset (IW.pack alpha100 m) (IW.pack alpha100 n)
      = Var.Set.subset m n)

(* Ordering contract: over a one-word alphabet the wide set order is
   exactly the one-word masks-as-integers order. *)
let prop_order_agrees =
  let vars = letters 40 in
  let alpha = IP.alphabet vars in
  QCheck.Test.make ~count:200 ~name:"wide set order = one-word set order"
    (QCheck.make (fun st -> List.init 15 (fun _ -> rand_interp st vars)))
    (fun interps ->
      let packed = IP.set_of_interps alpha interps in
      let wide = IW.set_of_interps alpha interps in
      Array.length packed = Array.length wide
      && Array.for_all2
           (fun p w -> IW.equal (IW.of_mask alpha p) w)
           packed wide)
  |> QCheck_alcotest.to_alcotest ~speed_level:`Quick

let prop_min_incl =
  qtest "wide min_incl = Interp.min_incl" ~count:200
    (QCheck.make (fun st -> List.init 12 (fun _ -> rand_interp st vars100)))
    (fun interps ->
      let wide =
        IW.min_incl (Array.of_list (List.map (IW.pack alpha100) interps))
      in
      same_models
        (IW.interps_of_set alpha100 wide)
        (Interp.min_incl interps))

let prop_frontier =
  qtest "wide Frontier = min_incl (any insertion order)" ~count:200
    (QCheck.make (fun st -> List.init 20 (fun _ -> rand_interp st vars100)))
    (fun interps ->
      let masks = List.map (IW.pack alpha100) interps in
      let fr = IW.Frontier.create () in
      List.iter (IW.Frontier.add fr) masks;
      IW.equal_set (IW.Frontier.to_set fr) (IW.min_incl (Array.of_list masks)))

(* -- one engine, two representations -------------------------------------- *)

(* Packed and Wide are the two applications of the same functors and
   the only production routes, so on widened one-word sets they must
   agree bit for bit: every operator and every measure. *)
let prop_packed_eq_wide =
  let vars = letters 8 in
  let alpha = IP.alphabet vars in
  let widen = IW.set_of_masks alpha in
  let same a b = IW.equal_set (widen a) b in
  qtest "Packed = Wide: six operators, mu, k, delta, omega (n = 8)"
    ~count:150
    (arb_pair (arb_formula vars) (arb_formula vars))
    (fun (t, p) ->
      let ts = Models.enumerate_packed alpha t
      and ps = Models.enumerate_packed alpha p in
      let wts = widen ts and wps = widen ps in
      List.for_all
        (fun op ->
          same
            (Model_based.Packed.select op ts ps)
            (Model_based.Wide.select op alpha wts wps))
        Model_based.all
      && (Array.length ts = 0 || Array.length ps = 0
         || Array.for_all
              (fun m ->
                let wm = IW.of_mask alpha m in
                same (Distance.Packed.mu m ps) (Distance.Wide.mu wm wps)
                && Distance.Packed.k_pointwise m ps
                   = Distance.Wide.k_pointwise wm wps)
              ts
            && same (Distance.Packed.delta ts ps) (Distance.Wide.delta wts wps)
            && Distance.Packed.k_global ts ps = Distance.Wide.k_global wts wps
            && IW.equal
                 (IW.of_mask alpha (Distance.Packed.omega ts ps))
                 (Distance.Wide.omega wts wps)))

(* -- boundary differentials ------------------------------------------------ *)

let boundary_widths = [ 61; 62; 63; 64; 65; 100; 127; 128 ]

(* One Wide_family instance per width: |Mod(T)| = 1, |Mod(P)| = 7 —
   small enough that the legacy list oracle runs at any width (it only
   needs explicit lists, never Interp.subsets). *)
let boundary_instance n =
  let fam = Witness.Wide_family.make ~n ~m:3 in
  let vars = Witness.Wide_family.letters fam in
  (fam, vars)

let check_boundary_width n =
  let fam, vars = boundary_instance n in
  let t = fam.Witness.Wide_family.t_wide
  and p = fam.Witness.Wide_family.p_wide in
  let alpha = IP.alphabet vars in
  (* Enumeration: production wrapper, wide engine, and (where the
     alphabet fits one word) the one-word engine must agree. *)
  let p_models = Models.enumerate vars p in
  check_int
    (Printf.sprintf "model count at n=%d" n)
    ((1 lsl fam.Witness.Wide_family.m) - 1)
    (List.length p_models);
  let wide = Models.enumerate_wide alpha p in
  check_bool
    (Printf.sprintf "wide enumeration at n=%d" n)
    true
    (same_models p_models (IW.interps_of_set alpha wide));
  if IP.fits alpha then
    check_bool
      (Printf.sprintf "one-word = multi-word at n=%d" n)
      true
      (IW.equal_set (IW.set_of_masks alpha (Models.enumerate_packed alpha p))
         wide);
  let t_models = Models.enumerate vars t in
  (* Distances: the dispatching wrappers vs the legacy oracle. *)
  let m = List.hd t_models in
  check_bool
    (Printf.sprintf "mu at n=%d" n)
    true
    (same_models (Set_distance.mu m p_models) (Legacy.Distance.mu m p_models));
  check_int
    (Printf.sprintf "k_pointwise at n=%d" n)
    (Legacy.Distance.k_pointwise m p_models)
    (Set_distance.k_pointwise m p_models);
  check_bool
    (Printf.sprintf "delta at n=%d" n)
    true
    (same_models
       (Set_distance.delta t_models p_models)
       (Legacy.Distance.delta t_models p_models));
  check_int
    (Printf.sprintf "k_global at n=%d" n)
    (Legacy.Distance.k_global t_models p_models)
    (Set_distance.k_global t_models p_models);
  check_int (Printf.sprintf "Dalal distance 1 at n=%d" n) 1
    (Set_distance.k_global t_models p_models);
  check_bool
    (Printf.sprintf "omega at n=%d" n)
    true
    (Var.Set.equal
       (Set_distance.omega t_models p_models)
       (Legacy.Distance.omega t_models p_models));
  (* All six operators, wrapper vs legacy oracle. *)
  List.iter
    (fun op ->
      check_bool
        (Printf.sprintf "%s at n=%d" (Model_based.name op) n)
        true
        (same_models
           (Model_based.select op t_models p_models)
           (Legacy.Model_based.select op t_models p_models)))
    Model_based.all

let test_boundary jobs () =
  Pool.with_jobs jobs (fun () -> List.iter check_boundary_width boundary_widths)

(* -- Models.count past the cutover ---------------------------------------- *)

let test_count_sat_tally () =
  (* 30 letters, 2^3 - 1 = 7 models: the count must come from the SAT
     tally, not a raise, and match the enumeration. *)
  let fam = Witness.Wide_family.make ~n:30 ~m:3 in
  let vars = Witness.Wide_family.letters fam in
  check_int "tally = closed form" 7
    (Models.count vars fam.Witness.Wide_family.p_wide);
  check_int "tally = enumeration" 7
    (List.length (Models.enumerate vars fam.Witness.Wide_family.p_wide))

let test_count_cap () =
  (* 2^10 models against cap 100: must raise an actionable message, not
     truncate silently. *)
  let fam = Witness.Wide_family.make ~n:30 ~m:10 in
  let vars = Witness.Wide_family.letters fam in
  match Models.count ~cap:100 vars fam.Witness.Wide_family.p_wide with
  | exception Invalid_argument msg ->
      check_bool "cap message names the cap" true
        (contains_substring msg "100")
  | k -> Alcotest.failf "expected a cap failure, got count %d" k

let test_count_unsat () =
  let vars = letters 30 in
  let x1 = Formula.var (List.nth vars 0) in
  check_int "unsat counts zero without walking" 0
    (Models.count vars (Formula.conj2 x1 (Formula.not_ x1)))

(* -- 100-letter acceptance run --------------------------------------------- *)

let test_acceptance_100 () =
  let fam = Witness.Wide_family.make ~n:100 ~m:4 in
  let vars = Witness.Wide_family.letters fam in
  let t = fam.Witness.Wide_family.t_wide
  and p = fam.Witness.Wide_family.p_wide in
  (* Enumeration on the wide path. *)
  let p_models = Models.enumerate vars p in
  check_int "15 models at n=100" 15 (List.length p_models);
  (* Dalal minimum distance via the session + ladder. *)
  check_int "k_{T,P} = 1 at n=100" 1
    (Compact.Measure.k (Compact.Measure.create (Kb.make t) p));
  (* Full Dalal revision through the multi-word operators. *)
  let result = Model_based.revise_on Model_based.Dalal vars t p in
  check_int "Dalal keeps the 4 one-flip models" 4
    (List.length (Result.models result));
  (* Compact.Check model checks on the wide session plumbing: Dalal
     (ladder) and Winslett (CEGAR with wide masks).  A one-flip model is
     selected, a two-flip model is not. *)
  let flip k =
    List.fold_left
      (fun acc (i, x) -> if i < k then acc else Var.Set.add x acc)
      Var.Set.empty
      (List.mapi (fun i x -> (i, x)) vars)
  in
  let one_flip = flip 1 and two_flip = flip 2 in
  List.iter
    (fun op ->
      check_bool
        (Printf.sprintf "%s accepts a one-flip model at n=100"
           (Model_based.name op))
        true
        (Compact.Check.model_check op t p one_flip);
      check_bool
        (Printf.sprintf "%s rejects a two-flip model at n=100"
           (Model_based.name op))
        false
        (Compact.Check.model_check op t p two_flip))
    [ Model_based.Dalal; Model_based.Winslett; Model_based.Forbus ]

let () =
  Alcotest.run "wide"
    [
      ( "primitives",
        [
          Alcotest.test_case "word layout" `Quick test_word_layout;
          Alcotest.test_case "sweep boundary" `Quick test_sweep_boundary;
          prop_roundtrip;
          prop_hamming;
          prop_subset;
          prop_order_agrees;
          prop_min_incl;
          prop_frontier;
          prop_packed_eq_wide;
        ] );
      ( "boundary",
        [
          Alcotest.test_case "widths 61-128, jobs=1" `Quick (test_boundary 1);
          Alcotest.test_case "widths 61-128, jobs=4" `Quick (test_boundary 4);
        ] );
      ( "count",
        [
          Alcotest.test_case "SAT tally past the cutover" `Quick
            test_count_sat_tally;
          Alcotest.test_case "cap failure is loud" `Quick test_count_cap;
          Alcotest.test_case "unsat is free" `Quick test_count_unsat;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "100-letter run on the multi-word path" `Quick
            test_acceptance_100;
        ] );
    ]
