(* Differential tests for the packed bitvector engine: on random
   formulas (n <= 10) the packed pipeline must agree exactly with the
   legacy Var.Set.t list pipeline — enumeration, equivalence checks, all
   six model-based operators and the distance machinery — plus unit tests
   for the packed primitives, the SAT-backed enumerator past the legacy
   25-letter cap, and the unified Distance empty-set contract. *)

open Logic
open Revision
open Helpers
open Revkb_oracle

let vars6 = letters 6
let vars10 = letters 10

let arb_f10 = arb_formula ~depth:4 vars10

(* Pairs of satisfiable formulas over vars6 (small enough that the
   quadratic legacy operators stay fast under 200 QCheck cases). *)
let arb_tp =
  QCheck.make
    ~print:(fun (t, p) ->
      Printf.sprintf "T=%s P=%s" (Formula.to_string t) (Formula.to_string p))
    (fun st ->
      let rec sat_f () =
        let g = Gen.formula st ~vars:vars6 ~depth:3 in
        if Semantics.is_sat g then g else sat_f ()
      in
      (sat_f (), sat_f ()))

(* -- packed primitives ----------------------------------------------------- *)

let test_pack_roundtrip () =
  let alpha = Interp_packed.alphabet vars10 in
  List.iter
    (fun m ->
      let mask = Interp_packed.pack alpha m in
      check_bool "roundtrip" true
        (Var.Set.equal m (Interp_packed.unpack alpha mask));
      check_int "popcount = cardinal" (Var.Set.cardinal m)
        (Interp_packed.popcount mask))
    (Interp.subsets (letters 8))

let test_popcount_exhaustive () =
  let rec count x = if x = 0 then 0 else (x land 1) + count (x lsr 1) in
  for x = 0 to 4097 do
    check_int "popcount small" (count x) (Interp_packed.popcount x)
  done;
  (* stress the high bits the SWAR constants must cover *)
  let top = 1 lsl (Interp_packed.max_letters - 1) in
  check_int "top bit" 1 (Interp_packed.popcount top);
  check_int "all payload bits" Interp_packed.max_letters
    (Interp_packed.popcount ((top - 1) lor top))

let prop_sat_agrees =
  qtest "sweep membership = Interp.sat" ~count:200 arb_f10 (fun fm ->
      let alpha = Interp_packed.alphabet vars10 in
      let models = Interp_packed.sweep alpha fm in
      List.for_all
        (fun m ->
          Interp_packed.mem models (Interp_packed.pack alpha m)
          = Interp.sat m fm)
        (Interp.subsets (letters 8)))

let prop_min_incl_agrees =
  qtest "packed min_incl = Interp.min_incl" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 0 12) (arb_interp vars6))
    (fun sets ->
      let alpha = Interp_packed.alphabet vars6 in
      let masks = Array.of_list (List.map (Interp_packed.pack alpha) sets) in
      same_models
        (Interp_packed.interps_of_set alpha (Interp_packed.min_incl masks))
        (Interp.min_incl sets))

(* -- enumeration ------------------------------------------------------------ *)

let prop_enumerate_agrees =
  qtest "enumerate: packed = legacy" ~count:200 arb_f10 (fun fm ->
      same_models
        (Models.enumerate vars10 fm)
        (Legacy.Models.enumerate vars10 fm))

let prop_sat_enumerator_agrees =
  qtest "enumerate: SAT walk = sweep" ~count:50 arb_f10 (fun fm ->
      let alpha = Interp_packed.alphabet vars10 in
      Interp_packed.equal_set
        (Semantics.masks_sat (module Mask.Packed) alpha fm)
        (Interp_packed.sweep alpha fm))

let prop_equivalent_on_agrees =
  qtest "equivalent_on: packed = legacy" ~count:200
    (arb_pair arb_f10 arb_f10) (fun (a, b) ->
      equivalent_on vars10 a b = Legacy.Models.equivalent_on vars10 a b
      && equivalent_on vars10 a a)

let prop_entails_on_agrees =
  qtest "entails_on: packed = legacy" ~count:200 (arb_pair arb_f10 arb_f10)
    (fun (a, b) ->
      Models.entails_on vars10 a b = Legacy.Models.entails_on vars10 a b)

(* -- word-parallel sweep: partial blocks, job counts, counters ------------ *)

(* Widths 0..4 fill only the low [2^n] bits of the single block, and the
   formulas range over two letters past the alphabet, which read false.
   Every block-kernel entry point must agree with the legacy engine
   there, and the kernel itself with [Interp.sat] bit by bit. *)
let arb_narrow =
  QCheck.make
    ~print:(fun (n, a, b) ->
      Printf.sprintf "n=%d a=%s b=%s" n (Formula.to_string a)
        (Formula.to_string b))
    (fun st ->
      let n = Random.State.int st 8 in
      let vars = letters (n + 2) in
      (n, Gen.formula st ~vars ~depth:3, Gen.formula st ~vars ~depth:3))

let prop_narrow_widths_agree =
  qtest "sweep/count/entails/equivalent at n = 0..7 = legacy" ~count:300
    arb_narrow (fun (n, a, b) ->
      let vars = letters n in
      let alpha = Interp_packed.alphabet vars in
      let reads_false f =
        Formula.assign_vars
          (Var.Set.fold
             (fun x acc ->
               if List.mem x vars then acc else Var.Map.add x false acc)
             (Formula.vars f) Var.Map.empty)
          f
      in
      let legacy = Legacy.Models.enumerate vars (reads_false a) in
      let kernel = Interp_packed.compile alpha a in
      let codes = List.map (Interp_packed.pack alpha) (Interp.subsets vars) in
      same_models
        (Interp_packed.interps_of_set alpha (Interp_packed.sweep alpha a))
        legacy
      && Interp_packed.count alpha a = List.length legacy
      && Interp_packed.satisfiable alpha a = (legacy <> [])
      && List.for_all
           (fun c ->
             (kernel (c lsr 5) lsr (c land 31)) land 1 = 1
             = Interp.sat (Interp_packed.unpack alpha c) a)
           codes
      && Models.entails_on vars a b = Legacy.Models.entails_on vars a b
      && equivalent_on vars a b
         = Legacy.Models.equivalent_on vars a b)

(* n = 14 is past the 2^12-code parallel threshold, so jobs = 4 splits
   the blocks into ranges; the answers must not notice. *)
let prop_jobs_bit_identical =
  qtest "sweep/count/satisfiable: jobs 1 = jobs 4 at n = 14" ~count:20
    (arb_formula ~depth:4 (letters 14))
    (fun fm ->
      let alpha = Interp_packed.alphabet (letters 14) in
      let run jobs =
        Revkb_parallel.Pool.with_jobs jobs (fun () ->
            ( Interp_packed.sweep alpha fm,
              Interp_packed.count alpha fm,
              Interp_packed.satisfiable alpha fm ))
      in
      run 1 = run 4)

(* The benchmark fingerprint cites enum.sweep_codes: one sweep adds
   exactly 2^n, whether the block is partial or split across domains. *)
let test_sweep_codes_counter () =
  let codes = Revkb_obs.Obs.counter "enum.sweep_codes" in
  List.iter
    (fun (n, jobs) ->
      let alpha = Interp_packed.alphabet (letters n) in
      let fm = Formula.disj2 (Formula.v "x1") (Formula.v "x3") in
      Revkb_parallel.Pool.with_jobs jobs (fun () ->
          let before = Revkb_obs.Obs.value codes in
          ignore (Interp_packed.sweep alpha fm);
          check_int
            (Printf.sprintf "sweep_codes at n=%d jobs=%d" n jobs)
            (1 lsl n)
            (Revkb_obs.Obs.value codes - before)))
    [ (3, 1); (3, 4); (14, 1); (14, 4) ]

(* The tentpole's large-alphabet case: 30 letters is past the legacy
   25-letter brute-force cap, but the SAT-backed enumerator walks the
   (small) model set directly. *)
let test_enumerate_beyond_legacy_cap () =
  let vars30 = letters 30 in
  let fixed = List.filteri (fun i _ -> i < 27) vars30 in
  let x28 = List.nth vars30 27 and x29 = List.nth vars30 28 in
  let fm =
    Formula.and_
      (List.map Formula.var fixed
      @ [ Formula.disj2 (Formula.var x28) (Formula.var x29) ])
  in
  (match Legacy.Models.enumerate vars30 fm with
  | exception Invalid_argument msg ->
      check_bool "legacy error names the limit" true
        (contains_substring msg "25")
  | _ -> Alcotest.fail "legacy path should reject 30 letters");
  let ms = Models.enumerate vars30 fm in
  (* x28|x29 gives 3 assignments, x30 is free: 6 models *)
  check_int "model count" 6 (List.length ms);
  List.iter (fun m -> check_bool "is model" true (Interp.sat m fm)) ms

(* -- operators --------------------------------------------------------------- *)

let op_agrees op =
  qtest
    (Printf.sprintf "select %s: packed = legacy" (Model_based.name op))
    ~count:200 arb_tp
    (fun (t, p) ->
      let t_models = Legacy.Models.enumerate vars6 t in
      let p_models = Legacy.Models.enumerate vars6 p in
      same_models
        (Model_based.select op t_models p_models)
        (Legacy.Model_based.select op t_models p_models))

let revise_agrees op =
  qtest
    (Printf.sprintf "revise_on %s: packed = legacy" (Model_based.name op))
    ~count:100 arb_tp
    (fun (t, p) ->
      same_models
        (Result.models (Model_based.revise_on op vars6 t p))
        (Result.models (Legacy.Model_based.revise_on op vars6 t p)))

(* -- distance ----------------------------------------------------------------- *)

let prop_distance_agrees =
  qtest "Distance {mu,delta,k_global,omega}: packed = legacy" ~count:200
    (arb_pair (arb_interp vars6) arb_tp)
    (fun (m, (t, p)) ->
      let t_models = Legacy.Models.enumerate vars6 t in
      let p_models = Legacy.Models.enumerate vars6 p in
      (t_models = [] || p_models = [])
      || same_models (Set_distance.mu m p_models)
           (Legacy.Distance.mu m p_models)
         && Set_distance.k_pointwise m p_models
            = Legacy.Distance.k_pointwise m p_models
         && same_models
              (Set_distance.delta t_models p_models)
              (Legacy.Distance.delta t_models p_models)
         && Set_distance.k_global t_models p_models
            = Legacy.Distance.k_global t_models p_models
         && Var.Set.equal
              (Set_distance.omega t_models p_models)
              (Legacy.Distance.omega t_models p_models))

(* -- streaming delta regression ------------------------------------------------ *)

(* The Frontier-streaming delta against the Legacy reference on random
   mask sets an order of magnitude bigger than the formula-driven cases
   above: the antichain must not depend on the order candidates stream
   through the frontier. *)
let mask_set seed count =
  let seed = (abs seed lor 1) land 0xFFFF in
  Interp_packed.normalize
    (Array.init count (fun i -> (((i + 3) * seed) + (i * i * 13)) land 0x3FF))

let prop_streaming_delta_matches_legacy =
  qtest "streaming delta/omega = legacy (random mask sets)" ~count:25
    (arb_pair QCheck.int QCheck.int)
    (fun (s1, s2) ->
      let alpha = Interp_packed.alphabet vars10 in
      let t_masks = mask_set s1 60 and p_masks = mask_set s2 60 in
      let t_models = Interp_packed.interps_of_set alpha t_masks in
      let p_models = Interp_packed.interps_of_set alpha p_masks in
      same_models
        (Interp_packed.interps_of_set alpha
           (Distance.Packed.delta t_masks p_masks))
        (Legacy.Distance.delta t_models p_models)
      && Var.Set.equal
           (Interp_packed.unpack alpha (Distance.Packed.omega t_masks p_masks))
           (Legacy.Distance.omega t_models p_models)
      && Distance.Packed.k_global t_masks p_masks
         = Legacy.Distance.k_global t_models p_models)

let test_packed_distance_empty_contract () =
  let some = [| 1 |] in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument msg ->
        check_bool
          (name ^ " error is attributed")
          true
          (contains_substring msg "Distance.")
    | _ -> Alcotest.failf "Packed.%s accepted an empty model set" name
  in
  expect_invalid "mu" (fun () -> ignore (Distance.Packed.mu 0 [||]));
  expect_invalid "k_pointwise" (fun () ->
      ignore (Distance.Packed.k_pointwise 0 [||]));
  expect_invalid "delta []/P" (fun () ->
      ignore (Distance.Packed.delta [||] some));
  expect_invalid "delta T/[]" (fun () ->
      ignore (Distance.Packed.delta some [||]));
  expect_invalid "k_global" (fun () ->
      ignore (Distance.Packed.k_global [||] some));
  expect_invalid "omega" (fun () -> ignore (Distance.Packed.omega some [||]))

(* Bytes the calling domain has allocated so far.  [Gc.minor_words] is
   exact; the minor count inside [Gc.counters] (and so
   [Gc.allocated_bytes]) credits the words pending in the minor heap at
   an eighth of their size on OCaml 5.1, so a delta read that way jumps
   whenever a minor collection falls inside the measured region.  The
   major words come from [Gc.counters] net of promotions: the blocks
   allocated directly in the major heap. *)
let domain_allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* The acceptance criterion for the streaming rewrite: delta over
   1000 x 1000 model sets must not allocate anything like the nt*np
   difference array (8 MB of words) the old pipeline built — the
   frontier plus bookkeeping stays under 1 MB. *)
let test_streaming_delta_allocation () =
  let mk seed =
    Interp_packed.normalize
      (Array.init 1000 (fun i -> ((i * 7919) + seed) land 0xFFFFF))
  in
  let t_masks = mk 1 and p_masks = mk 577 in
  Revkb_parallel.Pool.with_jobs 1 (fun () ->
      (* Rebuild the jobs=1 pool before the baseline, not inside it. *)
      ignore (Revkb_parallel.Pool.global ());
      let before = domain_allocated_bytes () in
      let d = Distance.Packed.delta t_masks p_masks in
      let allocated = domain_allocated_bytes () -. before in
      check_bool "delta nonempty" true (Array.length d > 0);
      if allocated >= 1_000_000. then
        Alcotest.failf
          "streaming delta allocated %.0f bytes on a 1000x1000 instance \
           (nt*np array would be ~8MB)"
          allocated)

(* The bit-sliced sweep evaluates a block of 32 codes per kernel call
   and allocates nothing per block: a 16-letter, 64-clause 3-CNF
   (2048 blocks) stays under 2^16 minor words.  A kernel that allocates
   a closure per code spends over two million here. *)
let test_sweep_allocation () =
  let st = Random.State.make [| 16 |] in
  let vars = letters 16 in
  let fm = Gen.cnf3 st ~vars ~nclauses:64 in
  let alpha = Interp_packed.alphabet vars in
  Revkb_parallel.Pool.with_jobs 1 (fun () ->
      ignore (Revkb_parallel.Pool.global ());
      let before = Gc.minor_words () in
      let models = Interp_packed.sweep alpha fm in
      let allocated = Gc.minor_words () -. before in
      check_int "sweep = legacy count"
        (List.length (Legacy.Models.enumerate vars fm))
        (Array.length models);
      if allocated >= 65536. then
        Alcotest.failf
          "sweep allocated %.0f minor words on a 16-letter 3-CNF (limit \
           65536)"
          allocated)

(* -- the unified empty-model-set contract -------------------------------------- *)

let test_distance_empty_contract () =
  let some = [ Var.set_of_list [ List.hd vars6 ] ] in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument msg ->
        check_bool
          (name ^ " error is attributed")
          true
          (contains_substring msg "Distance.")
    | _ -> Alcotest.failf "%s accepted an empty model set" name
  in
  expect_invalid "mu" (fun () -> ignore (Set_distance.mu Var.Set.empty []));
  expect_invalid "k_pointwise" (fun () ->
      ignore (Set_distance.k_pointwise Var.Set.empty []));
  expect_invalid "delta []/P" (fun () -> ignore (Set_distance.delta [] some));
  expect_invalid "delta T/[]" (fun () -> ignore (Set_distance.delta some []));
  expect_invalid "k_global" (fun () -> ignore (Set_distance.k_global [] some));
  expect_invalid "omega" (fun () -> ignore (Set_distance.omega some []))

let () =
  Alcotest.run "packed"
    [
      ( "primitives",
        [
          Alcotest.test_case "pack roundtrip" `Quick test_pack_roundtrip;
          Alcotest.test_case "popcount" `Quick test_popcount_exhaustive;
          prop_sat_agrees;
          prop_min_incl_agrees;
        ] );
      ( "enumeration",
        [
          prop_enumerate_agrees;
          prop_sat_enumerator_agrees;
          prop_equivalent_on_agrees;
          prop_entails_on_agrees;
          Alcotest.test_case "beyond the 25-letter cap" `Quick
            test_enumerate_beyond_legacy_cap;
          prop_narrow_widths_agree;
          prop_jobs_bit_identical;
          Alcotest.test_case "sweep_codes grows by 2^n" `Quick
            test_sweep_codes_counter;
          Alcotest.test_case "sweep allocates under 2^16 minor words" `Quick
            test_sweep_allocation;
        ] );
      ("operators", List.map op_agrees Model_based.all);
      ("revise_on", List.map revise_agrees Model_based.all);
      ( "distance",
        [
          prop_distance_agrees;
          prop_streaming_delta_matches_legacy;
          Alcotest.test_case "empty-set contract" `Quick
            test_distance_empty_contract;
          Alcotest.test_case "packed empty-set contract" `Quick
            test_packed_distance_empty_contract;
          Alcotest.test_case "streaming delta stays allocation-lean" `Quick
            test_streaming_delta_allocation;
        ] );
    ]
