(* Bechamel micro-benchmarks.  The paper reports no wall-clock numbers
   (it is a complexity paper); these timings document the cost profile of
   this implementation: one Test.make per table-driving computation. *)

open Bechamel
open Logic

let fixed_instance () =
  let st = Data.fresh_state () in
  let vars = Gen.letters 7 in
  let t = Data.sat_formula st ~vars ~depth:3 in
  let p = Data.sat_formula st ~vars ~depth:3 in
  (vars, t, p)

(* Old-vs-new: the legacy Var.Set.t list pipeline against the packed
   bitvector pipeline on the same instances.  Near-threshold random
   3-CNFs keep the model sets small, so both engines' cost is dominated
   by the 2^n enumeration sweep the packed representation accelerates. *)
let packed_instance n =
  let st = Data.fresh_state () in
  let vars = Gen.letters n in
  let rec sat_cnf () =
    let f = Gen.cnf3 st ~vars ~nclauses:(4 * n) in
    if Semantics.is_sat f then f else sat_cnf ()
  in
  (vars, sat_cnf (), sat_cnf ())

let packed_vs_legacy_tests () =
  List.concat_map
    (fun n ->
      let vars, t, p = packed_instance n in
      List.concat_map
        (fun op ->
          let name engine =
            Printf.sprintf "packed-vs-legacy/%s-n%d/%s"
              (Revision.Model_based.name op) n engine
          in
          [
            Test.make ~name:(name "legacy")
              (Staged.stage (fun () ->
                   ignore
                     (Revkb_oracle.Legacy.Model_based.revise_on op vars t p)));
            Test.make ~name:(name "packed")
              (Staged.stage (fun () ->
                   ignore (Revision.Model_based.revise_on op vars t p)));
          ])
        [ Revision.Model_based.Dalal; Revision.Model_based.Winslett ])
    [ 12; 14; 16 ]

(* The SAT-backed enumerator past the legacy 25-letter cap: 30 letters,
   6 models.  There is no legacy row — Legacy.Models.enumerate rejects
   alphabets beyond 25 letters outright. *)
let sat_enumerator_test () =
  let vars = Gen.letters 30 in
  let fixed = List.filteri (fun i _ -> i < 27) vars in
  let a = List.nth vars 27 and b = List.nth vars 28 in
  let f =
    Formula.and_
      (List.map Formula.var fixed
      @ [ Formula.disj2 (Formula.var a) (Formula.var b) ])
  in
  Test.make ~name:"enumerate/sat-walk-n30-6models"
    (Staged.stage (fun () -> ignore (Models.enumerate vars f)))

let make_tests () =
  let vars, t, p = fixed_instance () in
  let revise_tests =
    List.map
      (fun op ->
        Test.make
          ~name:(Printf.sprintf "revise/%s" (Revision.Model_based.name op))
          (Staged.stage (fun () ->
               ignore (Revision.Model_based.revise_on op vars t p))))
      Revision.Model_based.all
  in
  let st = Data.fresh_state () in
  let cnf = Gen.cnf3 st ~vars:(Gen.letters 40) ~nclauses:168 in
  let sat_test =
    Test.make ~name:"sat/3cnf-40v-168c"
      (Staged.stage (fun () -> ignore (Semantics.is_sat cnf)))
  in
  let exa_test =
    let xs = Gen.letters ~prefix:"bx" 20 and ys = Gen.letters ~prefix:"by" 20 in
    Test.make ~name:"exa/build-n20-k10"
      (Staged.stage (fun () -> ignore (Hamming.exa 10 xs ys)))
  in
  let dalal_compact_test =
    Test.make ~name:"table1/dalal-compact-n7"
      (Staged.stage (fun () -> ignore (Compact.Dalal_compact.revise t p)))
  in
  let worlds_test =
    let ex = Witness.Winslett_example.make 4 in
    Test.make ~name:"table1/gfuv-worlds-winslett-m4"
      (Staged.stage (fun () ->
           ignore
             (Revision.Formula_based.worlds ex.Witness.Winslett_example.t2
                ex.Witness.Winslett_example.p2)))
  in
  let iterated_test =
    let ps = List.init 3 (fun _ -> Data.sat_formula st ~vars ~depth:2) in
    Test.make ~name:"table2/iterated-dalal-phi3"
      (Staged.stage (fun () -> ignore (Compact.Iterated.dalal t ps)))
  in
  let qmc_test =
    let ms = Models.enumerate vars t in
    Test.make ~name:"structures/qmc-7v"
      (Staged.stage (fun () -> ignore (Qmc.minimize vars ms)))
  in
  let bdd_test =
    Test.make ~name:"structures/bdd-7v"
      (Staged.stage (fun () ->
           let mgr = Bdd.manager vars in
           ignore (Bdd.node_count (Bdd.of_formula mgr t))))
  in
  let check_tests =
    let letters = Gen.letters 30 in
    let big_t = Formula.and_ (List.map Formula.var letters) in
    let big_p =
      Formula.and_
        [
          Formula.not_ (Formula.var (List.nth letters 0));
          Formula.not_ (Formula.var (List.nth letters 1));
        ]
    in
    let n =
      Var.Set.remove (List.nth letters 0)
        (Var.Set.remove (List.nth letters 1) (Var.set_of_list letters))
    in
    [
      Test.make ~name:"check/dalal-model-check-30v"
        (Staged.stage (fun () ->
             ignore
               (Compact.Check.model_check Revision.Model_based.Dalal big_t
                  big_p n)));
      Test.make ~name:"check/winslett-model-check-30v"
        (Staged.stage (fun () ->
             ignore
               (Compact.Check.model_check Revision.Model_based.Winslett big_t
                  big_p n)));
      Test.make ~name:"check/dalal-entails-30v"
        (Staged.stage (fun () ->
             ignore
               (Compact.Check.entails Revision.Model_based.Dalal big_t big_p
                  (Formula.var (List.nth letters 17)))));
    ]
  in
  Test.make_grouped ~name:"revkb"
    (revise_tests @ check_tests
    @ packed_vs_legacy_tests ()
    @ [
        sat_enumerator_test ();
        sat_test;
        exa_test;
        dalal_compact_test;
        worlds_test;
        iterated_test;
        qmc_test;
        bdd_test;
      ])

let run () =
  Report.section "Timing (bechamel, monotonic clock)";
  let tests = make_tests () in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Analyze.OLS.estimates est with
          | Some [ t ] -> t
          | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  let human ns =
    if Float.is_nan ns then "n/a"
    else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  Report.table
    [ "benchmark"; "time/run" ]
    (List.map (fun (name, ns) -> [ name; human ns ]) rows);
  (* Pair the .../legacy and .../packed rows into explicit speedups. *)
  let suffix = "/legacy" in
  let speedups =
    List.filter_map
      (fun (name, legacy_ns) ->
        match Filename.check_suffix name suffix with
        | false -> None
        | true ->
            let base = Filename.chop_suffix name suffix in
            List.assoc_opt (base ^ "/packed") rows
            |> Option.map (fun packed_ns ->
                   (* Feed the JSON artifact alongside the printed table:
                      n comes from the "...-n%d" instance name, jobs is
                      whatever the pool would use (these rows compare
                      engines, not job counts). *)
                   let n =
                     match String.rindex_opt base 'n' with
                     | Some i -> (
                         match
                           int_of_string_opt
                             (String.sub base (i + 1)
                                (String.length base - i - 1))
                         with
                         | Some n -> n
                         | None -> 0)
                     | None -> 0
                   in
                   (* json_float rejects non-finite values, so a failed
                      OLS estimate (nan) must not reach the artifact. *)
                   if
                     Float.is_finite packed_ns
                     && Float.is_finite (legacy_ns /. packed_ns)
                   then
                     Json_out.add ~bench:base ~n
                       ~jobs:(Revkb_parallel.Pool.default_jobs ())
                       ~wall_ms:(packed_ns /. 1e6)
                       ~speedup:(legacy_ns /. packed_ns) ();
                   (base, legacy_ns, packed_ns)))
      rows
  in
  if speedups <> [] then begin
    Report.subsection "packed engine vs legacy list engine";
    Report.table
      [ "instance"; "legacy"; "packed"; "speedup" ]
      (List.map
         (fun (base, legacy_ns, packed_ns) ->
           [
             base;
             human legacy_ns;
             human packed_ns;
             Printf.sprintf "%.1fx" (legacy_ns /. packed_ns);
           ])
         speedups)
  end;
  (* Regression gate for the one-word fast path: these instances all fit
     one word, and the packed engine historically beats the list engine
     by an order of magnitude.  The repo-wide [History.wall_regressed]
     predicate (>10% wall growth over the baseline — here, the legacy
     engine) decides; that margin is way outside measurement noise, so
     fail the bench loudly rather than let the artifact quietly record
     the regression. *)
  let regressions =
    List.filter
      (fun (_, legacy_ns, packed_ns) ->
        Revkb_obs.History.wall_regressed ~baseline:legacy_ns ~current:packed_ns)
      speedups
  in
  if regressions <> [] then begin
    List.iter
      (fun (base, legacy_ns, packed_ns) ->
        Printf.eprintf
          "timing: one-word packed path regressed on %s: %.2fx vs legacy \
           (threshold: >10%% wall growth)\n"
          base (legacy_ns /. packed_ns))
      regressions;
    Json_out.write ();
    exit 1
  end;
  Json_out.write ()
