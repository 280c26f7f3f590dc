(* The Domain work pool and the engine paths wired to it.  The pool's
   contract is that results are bit-identical at every job count; every
   test here runs the same computation under [Pool.with_jobs 1] and
   [Pool.with_jobs 4] and compares exactly.  Instances are sized past
   the engines' parallel thresholds so jobs=4 genuinely takes the
   chunked path rather than the sequential shortcut. *)

open Logic
open Revision
open Helpers
module Pool = Revkb_parallel.Pool
module IP = Interp_packed

let both f = (Pool.with_jobs 1 f, Pool.with_jobs 4 f)

(* -- pool primitives -------------------------------------------------------- *)

let with_pool jobs f =
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_map_reduce () =
  let input = Array.init 10_000 (fun i -> i) in
  let expect = 10_000 * 9_999 / 2 in
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let range_sum lo hi =
            let s = ref 0 in
            for i = lo to hi - 1 do
              s := !s + i
            done;
            !s
          in
          check_int "parallel_for_reduce sum" expect
            (Pool.parallel_for_reduce pool ~lo:0 ~hi:10_000 ~map:range_sum
               ~reduce:( + ) 0);
          check_int "map_array" expect
            (Array.fold_left ( + ) 0
               (Pool.map_array pool (fun i -> i) input))))
    [ 1; 2; 4 ]

(* map_ranges must return the chunks in ascending order, contiguous and
   covering [lo, hi) — the merge steps (Array.concat of sorted chunks,
   in-order folds) rely on exactly this. *)
let test_map_ranges_partition () =
  with_pool 4 (fun pool ->
      let ranges = Pool.map_ranges pool ~lo:3 ~hi:1003 (fun lo hi -> (lo, hi)) in
      check_bool "at least one chunk" true (Array.length ranges > 0);
      let expected_lo = ref 3 in
      Array.iter
        (fun (lo, hi) ->
          check_int "contiguous" !expected_lo lo;
          check_bool "nonempty chunk" true (hi > lo);
          expected_lo := hi)
        ranges;
      check_int "covers hi" 1003 !expected_lo)

let test_exception_propagates () =
  with_pool 4 (fun pool ->
      (match
         Pool.map_array pool
           (fun i -> if i = 37 then failwith "boom" else i)
           (Array.init 100 (fun i -> i))
       with
      | exception Failure msg -> check_bool "first failure" true (msg = "boom")
      | _ -> Alcotest.fail "exception swallowed by the pool");
      (* the pool must survive a failed batch *)
      check_int "pool usable after failure" 4950
        (Array.fold_left ( + ) 0
           (Pool.map_array pool Fun.id (Array.init 100 (fun i -> i)))))

(* A task that itself submits a batch to the same pool: the caller-help
   loop must drain the nested batch instead of deadlocking. *)
let test_nested_batches () =
  with_pool 2 (fun pool ->
      let outer =
        Pool.map_list pool
          (fun i ->
            i
            + Pool.parallel_for_reduce pool ~lo:0 ~hi:100
                ~map:(fun lo hi -> hi - lo)
                ~reduce:( + ) 0)
          [ 1; 2; 3; 4 ]
      in
      check_bool "nested batches" true (outer = [ 101; 102; 103; 104 ]))

let test_with_jobs_restores () =
  let before = Pool.default_jobs () in
  check_int "forced inside" 3 (Pool.with_jobs 3 Pool.default_jobs);
  check_int "restored" before (Pool.default_jobs ());
  (match Pool.with_jobs 3 (fun () -> failwith "escape") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected escape");
  check_int "restored after raise" before (Pool.default_jobs ())

(* -- enumeration ------------------------------------------------------------ *)

(* 14 letters: the 2^14 sweep is past sweep_parallel_threshold. *)
let vars14 = letters 14

let prop_enumerate_jobs =
  qtest "enumerate_packed: jobs=1 = jobs=4" ~count:30
    (arb_formula ~depth:4 vars14) (fun fm ->
      let alpha = IP.alphabet vars14 in
      let a, b = both (fun () -> Models.enumerate_packed alpha fm) in
      IP.equal_set a b)

let prop_count_jobs =
  qtest "Models.count: jobs=1 = jobs=4" ~count:30 (arb_formula ~depth:4 vars14)
    (fun fm ->
      let a, b = both (fun () -> Models.count vars14 fm) in
      a = b)

(* -- distances -------------------------------------------------------------- *)

(* Random 20-bit mask sets of ~150 members: nt*np crosses the distance
   parallel_threshold, so jobs=4 takes the chunked frontier path. *)
let mask_set seed count =
  let seed = (abs seed lor 1) land 0xFFFF in
  IP.normalize
    (Array.init count (fun i -> (((i + 7) * seed) + (i * i * 31)) land 0xFFFFF))

let arb_seeds = QCheck.pair QCheck.int QCheck.int

let prop_distances_jobs =
  qtest "Packed {mu,k_pointwise,delta,k_global,omega}: jobs=1 = jobs=4"
    ~count:20 arb_seeds (fun (s1, s2) ->
      let t_models = mask_set s1 150 and p_models = mask_set s2 150 in
      let m = t_models.(0) in
      let mu1, mu4 = both (fun () -> Distance.Packed.mu m p_models) in
      let kp1, kp4 = both (fun () -> Distance.Packed.k_pointwise m p_models) in
      let d1, d4 = both (fun () -> Distance.Packed.delta t_models p_models) in
      let kg1, kg4 =
        both (fun () -> Distance.Packed.k_global t_models p_models)
      in
      let om1, om4 = both (fun () -> Distance.Packed.omega t_models p_models) in
      IP.equal_set mu1 mu4 && kp1 = kp4 && IP.equal_set d1 d4 && kg1 = kg4
      && om1 = om4)

(* -- the six model-based operators ------------------------------------------ *)

(* 12 letters: enumeration sweeps hit the parallel path while the legacy
   reference stays out of the picture (packed-native throughout). *)
let vars12 = letters 12

let arb_tp12 =
  QCheck.make
    ~print:(fun (t, p) ->
      Printf.sprintf "T=%s P=%s" (Formula.to_string t) (Formula.to_string p))
    (fun st ->
      let rec sat_f () =
        let g = Gen.formula st ~vars:vars12 ~depth:3 in
        if Semantics.is_sat g then g else sat_f ()
      in
      (sat_f (), sat_f ()))

let op_jobs op =
  qtest
    (Printf.sprintf "revise_on %s: jobs=1 = jobs=4" (Model_based.name op))
    ~count:15 arb_tp12
    (fun (t, p) ->
      let a, b =
        both (fun () -> Result.models (Model_based.revise_on op vars12 t p))
      in
      same_models a b)

(* -- SAT-probe fan-out ------------------------------------------------------- *)

let test_model_check_batch () =
  let vars30 = letters 30 in
  let t = Formula.and_ (List.map Formula.var vars30) in
  let x0 = List.nth vars30 0 and x1 = List.nth vars30 1 in
  let p =
    Formula.and_
      [ Formula.not_ (Formula.var x0); Formula.not_ (Formula.var x1) ]
  in
  let full = Var.set_of_list vars30 in
  let candidates =
    List.map
      (fun drop -> Var.Set.diff full (Var.set_of_list drop))
      [ [ x0; x1 ]; [ x0 ]; [ x1 ]; []; [ x0; x1; List.nth vars30 5 ] ]
  in
  List.iter
    (fun op ->
      let a, b =
        both (fun () ->
            Compact.Check.model_check_batch op (Kb.make t) p candidates)
      in
      check_bool "batch jobs=1 = jobs=4" true (a = b);
      check_bool "batch = pointwise" true
        (a = List.map (fun n -> Compact.Check.model_check op t p n) candidates))
    [ Model_based.Dalal; Model_based.Weber; Model_based.Winslett ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map_reduce at jobs 1/2/4" `Quick test_map_reduce;
          Alcotest.test_case "map_ranges partitions in order" `Quick
            test_map_ranges_partition;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested batches don't deadlock" `Quick
            test_nested_batches;
          Alcotest.test_case "with_jobs save/restore" `Quick
            test_with_jobs_restores;
        ] );
      ("enumeration", [ prop_enumerate_jobs; prop_count_jobs ]);
      ("distance", [ prop_distances_jobs ]);
      ("operators", List.map op_jobs Model_based.all);
      ( "check",
        [ Alcotest.test_case "model_check_batch" `Quick test_model_check_batch ]
      );
    ]
