(* Incremental-session bench: the fresh-solver baselines against the
   session paths on identical inputs.  Three workloads:

   - dalal-min-distance: the k_{T,P} sweep ([Fresh.min_distance_exa]
     vs [Hamming.min_distance_sat]) — one solver + ladder assumption
     flips against a fresh solver and a fresh EXA Tseitin build per
     threshold.
   - dist-to-sweep: minimum distance from many reference points to one
     formula ([Fresh.dist_to] per point vs one reused
     [Check.Dist] prober).
   - cegar-forbus: a Forbus model check whose CEGAR loop refutes every
     witness ([Fresh.model_check] vs the shared-session
     [Check.model_check]).

   Every session answer is asserted equal to the fresh one before its
   timing is reported.  Rows carry wall clock, solver constructions
   (sem.env.builds delta) and encoded clauses (sem.encode.clauses delta)
   for both sides; the run HARD-FAILS (exit 1) if the session path is
   more than 10% slower than fresh on any row, or if the headline rows
   (the Dalal sweeps and the CEGAR check) reduce solver constructions by
   less than 3x.  Everything is written to BENCH_incremental.json
   (override via REVKB_BENCH_INCREMENTAL_JSON) for the CI artifact. *)

open Logic
module Obs = Revkb_obs.Obs
module Check = Compact.Check
module MB = Revision.Model_based
module Fresh = Revkb_oracle.Fresh

type row = {
  bench : string;
  n : int;
  fresh_ms : float;
  session_ms : float;
  speedup : float;
  fresh_builds : int;
  session_builds : int;
  fresh_clauses : int;
  session_clauses : int;
}

let reps = 3

(* Best of [reps] runs, plus per-run counter deltas (counters always
   record, so the deltas cost nothing; dividing by [reps] reports one
   run's worth). *)
let measure f =
  let s0 = Obs.snapshot () in
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let elapsed = (Unix.gettimeofday () -. t0) *. 1000. in
    if elapsed < !best then best := elapsed;
    result := Some r
  done;
  let d = (Obs.diff (Obs.snapshot ()) s0).Obs.counters in
  let per_rep name =
    Option.value (List.assoc_opt name d) ~default:0 / reps
  in
  ( Option.get !result,
    !best,
    per_rep "sem.env.builds",
    per_rep "sem.encode.clauses" )

let compare_paths ~bench ~n ~equal fresh session =
  let fr, fresh_ms, fresh_builds, fresh_clauses = measure fresh in
  let se, session_ms, session_builds, session_clauses = measure session in
  if not (equal fr se) then
    failwith (Printf.sprintf "session mismatch in %s (n=%d)" bench n);
  {
    bench;
    n;
    fresh_ms;
    session_ms;
    speedup = fresh_ms /. session_ms;
    fresh_builds;
    session_builds;
    fresh_clauses;
    session_clauses;
  }

(* -- workloads ------------------------------------------------------------ *)

(* Maximal-distance pair: T pins every letter true, P every letter
   false, so the sweep probes all n+1 thresholds — the worst case for
   the rebuild-EXA-per-k baseline. *)
let antipodal n =
  let vars = Gen.letters n in
  ( Formula.and_ (List.map Formula.var vars),
    Formula.and_ (List.map (fun v -> Formula.not_ (Formula.var v)) vars) )

(* Random structure over most letters, but the first [k] pinned to
   opposite polarities — guarantees k_{T,P} >= k, so the sweep is never
   a trivial distance-0 probe. *)
let pinned_random n k st =
  let vars = Gen.letters n in
  let pre = List.filteri (fun i _ -> i < k) vars in
  let rest = List.filteri (fun i _ -> i >= k) vars in
  ( Formula.and_
      (Data.sat_formula st ~vars:rest ~depth:3 :: List.map Formula.var pre),
    Formula.and_
      (Data.sat_formula st ~vars:rest ~depth:3
      :: List.map (fun v -> Formula.not_ (Formula.var v)) pre) )

let dalal_rows () =
  List.map
    (fun n ->
      let st = Data.fresh_state () in
      let t, p =
        if n mod 2 = 0 then antipodal n else pinned_random n 6 st
      in
      compare_paths ~bench:"dalal-min-distance" ~n ~equal:( = )
        (fun () -> Fresh.min_distance_exa t p)
        (fun () -> Hamming.min_distance_sat t p))
    [ 12; 15; 20 ]

let dist_to_rows () =
  let n = 14 in
  let st = Data.fresh_state () in
  let vars = Gen.letters n in
  let f = Data.sat_formula st ~vars ~depth:4 in
  (* 64 deterministic pseudo-random reference points *)
  let refs =
    List.init 64 (fun i ->
        let m = i * 7919 land ((1 lsl n) - 1) in
        List.fold_left
          (* lint: shift-ok j < n, and bench alphabets stay far under 62 *)
          (fun acc (j, x) ->
            if m land (1 lsl j) <> 0 then Var.Set.add x acc else acc)
          Var.Set.empty
          (List.mapi (fun j x -> (j, x)) vars))
  in
  [
    compare_paths ~bench:"dist-to-sweep" ~n ~equal:( = )
      (fun () -> List.map (fun r -> Fresh.dist_to f r vars) refs)
      (fun () ->
        let d = Check.Dist.create f vars in
        List.map (Check.Dist.to_interp d) refs);
  ]

(* At-most-one-true T: n+1 models, and a reference point that satisfies
   none of them, so the Forbus CEGAR loop must refute (and block) every
   witness before concluding [false] — n+1 refinement rounds, each of
   which costs the fresh path a full dist_to sweep on its own solvers. *)
let cegar_rows () =
  List.map
    (fun n ->
      let vars = Gen.letters n in
      let rec pairs = function
        | [] -> []
        | x :: rest ->
            List.map
              (fun y ->
                Formula.or_
                  [ Formula.not_ (Formula.var x); Formula.not_ (Formula.var y) ])
              rest
            @ pairs rest
      in
      let t = Formula.and_ (pairs vars) in
      let candidate =
        (* weight 2: not a model of T, so every witness gets refuted
           whenever P can move strictly closer to it *)
        Var.set_of_list (List.filteri (fun i _ -> i < 2) vars)
      in
      (* P is the expensive side: the fresh path re-Tseitins it for
         every distance probe of every refutation, the session encodes
         it once.  A conjunction of several depth-4 blocks keeps it
         satisfiable-by-candidate while making each re-encode count. *)
      let st = Data.fresh_state () in
      let rec gen_block () =
        let b = Data.sat_formula st ~vars ~depth:4 in
        if Interp.sat candidate b then b else gen_block ()
      in
      let p = Formula.and_ (List.init 6 (fun _ -> gen_block ())) in
      compare_paths ~bench:"cegar-forbus" ~n ~equal:Bool.equal
        (fun () -> Fresh.model_check MB.Forbus t p candidate)
        (fun () -> Check.model_check MB.Forbus t p candidate))
    [ 12; 16 ]

(* -- artifact + gate ------------------------------------------------------ *)

let json_path () =
  Option.value
    (Sys.getenv_opt "REVKB_BENCH_INCREMENTAL_JSON")
    ~default:"BENCH_incremental.json"

let json_of_row r =
  let js = Revkb_obs.Export.json_string in
  let jf = Revkb_obs.Export.json_float in
  Printf.sprintf
    "{\"bench\": %s, \"n\": %d, \"fresh_wall_ms\": %s, \"session_wall_ms\": \
     %s, \"speedup\": %s, \"fresh_solver_builds\": %d, \
     \"session_solver_builds\": %d, \"builds_reduction\": %s, \
     \"fresh_encoded_clauses\": %d, \"session_encoded_clauses\": %d}"
    (js r.bench) r.n (jf r.fresh_ms) (jf r.session_ms) (jf r.speedup)
    r.fresh_builds r.session_builds
    (jf (float_of_int r.fresh_builds /. float_of_int (max 1 r.session_builds)))
    r.fresh_clauses r.session_clauses

let write_json rows =
  let file = json_path () in
  let oc = open_out file in
  output_string oc "[\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc "  %s%s\n" (json_of_row r)
        (if i = last then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "  [%d rows -> %s]\n" (List.length rows) file

let builds_reduction r =
  float_of_int r.fresh_builds /. float_of_int (max 1 r.session_builds)

(* Session wall appended per run: the observatory watches the absolute
   cost of the incremental path across check-ins, complementing the
   in-process fresh-vs-session gate below. *)
let append_history rows =
  Revkb_obs.History.append
    (Revkb_obs.History.default_path ())
    (List.map
       (fun r ->
         {
           Revkb_obs.History.r_bench = "incremental/" ^ r.bench;
           r_n = r.n;
           r_jobs = Revkb_parallel.Pool.default_jobs ();
           r_wall_ms = r.session_ms;
           r_ts = Unix.gettimeofday ();
         })
       rows)

let gate rows =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun r ->
      if Revkb_obs.History.wall_regressed ~baseline:r.fresh_ms ~current:r.session_ms
      then
        fail "%s (n=%d): session wall %.2fms > 1.1x fresh %.2fms" r.bench r.n
          r.session_ms r.fresh_ms;
      if
        (r.bench = "dalal-min-distance" || r.bench = "cegar-forbus")
        && builds_reduction r < 3.0
      then
        fail "%s (n=%d): solver-build reduction %.1fx < 3x" r.bench r.n
          (builds_reduction r))
    rows;
  match !failures with
  | [] -> ()
  | fs ->
      List.iter (fun s -> Printf.eprintf "REGRESSION: %s\n" s) (List.rev fs);
      exit 1

let run () =
  Report.section "Incremental sessions (fresh solver per probe vs one session)";
  Report.para
    "  identical answers asserted; builds = sem.env.builds delta per run,\n\
    \  clauses = sem.encode.clauses delta per run.  Fails on >10% wall\n\
    \  regression or <3x build reduction on the headline rows.";
  let rows = dalal_rows () @ dist_to_rows () @ cegar_rows () in
  Report.table
    [
      "bench"; "n"; "fresh"; "session"; "speedup"; "builds f/s"; "clauses f/s";
    ]
    (List.map
       (fun r ->
         [
           r.bench;
           string_of_int r.n;
           Printf.sprintf "%.2f ms" r.fresh_ms;
           Printf.sprintf "%.2f ms" r.session_ms;
           Printf.sprintf "%.2fx" r.speedup;
           Printf.sprintf "%d/%d (%.1fx)" r.fresh_builds r.session_builds
             (builds_reduction r);
           Printf.sprintf "%d/%d" r.fresh_clauses r.session_clauses;
         ])
       rows);
  write_json rows;
  append_history rows;
  gate rows
