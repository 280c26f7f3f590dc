(* Ablations around the paper's compilation theme.

   1. EXA construction choice: the ladder network vs a totalizer — the
      paper only requires *some* polynomial counting circuit; both are
      implemented and their sizes compared.
   2. Off-line/on-line split (the Section 1 motivation): computing the
      Theorem 3.4 representation once and answering queries by SAT,
      versus answering each query against the semantic revision.
   3. Horn least upper bounds of revised knowledge bases — the
      approximate-compilation thread the paper situates itself against
      (Kautz-Selman; Gogic-Papadimitriou-Sideri, Section 2.3). *)

open Logic
open Revision

let exa_ablation () =
  Report.subsection "EXA construction: ladder (used by Thm 3.4) vs totalizer";
  let rows =
    List.map
      (fun n ->
        let xs = Gen.letters ~prefix:"ax" n and ys = Gen.letters ~prefix:"ay" n in
        let k = n / 2 in
        let ladder, laux = Hamming.exa ~avoid:Var.Set.empty k xs ys in
        let tot, taux = Hamming.exa_totalizer ~avoid:Var.Set.empty k xs ys in
        [
          string_of_int n;
          string_of_int k;
          string_of_int (Formula.size ladder);
          string_of_int (List.length laux);
          string_of_int (Formula.size tot);
          string_of_int (List.length taux);
        ])
      [ 4; 8; 16; 32; 64 ]
  in
  Report.table
    [
      "n";
      "k";
      "ladder size";
      "ladder aux";
      "totalizer size";
      "totalizer aux";
    ]
    rows;
  Report.para
    "  both polynomial (the ladder is leaner for exact-k; the totalizer\n\
    \  computes the full unary count).  Equivalence of the two is\n\
    \  property-tested in test/test_structures.ml."

let offline_online () =
  Report.subsection
    "Off-line compilation vs on-line answering (the Section 1 two-step scheme)";
  let st = Data.fresh_state () in
  let queries vars = List.init 50 (fun _ -> Gen.formula st ~vars ~depth:2) in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let rows =
    List.map
      (fun n ->
        let vars = Gen.letters n in
        let t =
          Formula.conj2
            (Formula.and_ (List.map Formula.var vars))
            (Formula.disj2
               (Gen.cnf3 st ~vars ~nclauses:n)
               (Formula.var (List.hd vars)))
        in
        let p =
          Formula.and_
            (List.filteri (fun i _ -> i < 3) vars
            |> List.map (fun v -> Formula.not_ (Formula.var v)))
        in
        let qs = queries vars in
        (* on-line: semantic revision (model enumeration) + model checks *)
        let (sem, t_online_build) =
          time (fun () -> Model_based.revise_on Model_based.Dalal vars t p)
        in
        let _, t_online_q =
          time (fun () -> List.iter (fun q -> ignore (Result.entails sem q)) qs)
        in
        (* off-line: Theorem 3.4 compile + one SAT call per query *)
        let (compiled, t_compile) =
          time (fun () ->
              Compact.Construct.revise Model_based.Dalal (Kb.make t) p)
        in
        let _, t_sat_q =
          time (fun () ->
              List.iter
                (fun q -> ignore (Semantics.entails compiled q))
                qs)
        in
        [
          string_of_int n;
          Printf.sprintf "%.1f" (1000. *. t_online_build);
          Printf.sprintf "%.1f" (1000. *. t_online_q);
          Printf.sprintf "%.1f" (1000. *. t_compile);
          Printf.sprintf "%.1f" (1000. *. t_sat_q);
        ])
      [ 10; 14; 18; 20 ]
  in
  Report.table
    [
      "alphabet n";
      "enumerate T*P (ms)";
      "50 queries (ms)";
      "compile T' (ms)";
      "50 SAT queries (ms)";
    ]
    rows;
  Report.para
    "  enumeration is exponential in the alphabet while the compiled\n\
    \  route runs NP-queries against the polynomial T' — the paper's\n\
    \  case for representing T * P as a formula at all."

let horn_lub () =
  Report.subsection
    "Horn LUB of revised knowledge bases (approximate compilation, cf. Section 2.3)";
  let st = Data.fresh_state () in
  let trials = 40 in
  let exact = ref 0 in
  let tot_lub = ref 0 and tot_qmc = ref 0 in
  for _ = 1 to trials do
    let vars, t, p = Data.random_tp st 4 in
    let sem = Model_based.revise_on Model_based.Dalal vars t p in
    let models = Result.models sem in
    let dnf = Models.dnf_of_models vars models in
    let closure = Horn.lub_models vars dnf in
    if List.length closure = List.length models then incr exact;
    tot_lub := !tot_lub + Horn.lub_size vars dnf;
    tot_qmc := !tot_qmc + Qmc.minimized_size vars models
  done;
  Report.para
    (Printf.sprintf
       "  %d random Dalal revisions over 4 letters:\n\
       \    revised KB already Horn (LUB exact): %d/%d\n\
       \    mean Horn-LUB size %.1f vs mean QMC size %.1f\n\
       \  LUB-based query answering is sound but incomplete — exactly the\n\
       \  kind of approximation the paper's equivalence criteria exclude."
       trials !exact trials
       (float_of_int !tot_lub /. float_of_int trials)
       (float_of_int !tot_qmc /. float_of_int trials))

(* -- compiled serving: the ROBDD read path --------------------------------

   Repeated-query serving against one knowledge base: compile T once to
   an ROBDD and answer every entailment query in diagram time, versus one
   SAT call per query, versus (where the alphabet permits) packed
   brute-force enumeration as a third oracle.  Answers are asserted equal
   across every oracle before any timing is reported.  The run HARD-FAILS
   (exit 1) if the compiled route is less than 10x faster than per-query
   SAT on a repeated-query row, or if a sifting pass ever grows the
   diagram.  Everything lands in BENCH_bdd.json (override via
   REVKB_BENCH_BDD_JSON) for the CI artifact. *)

type serving_row = {
  bench : string;
  n : int;
  queries : int;
  sat_ms : float;
  compile_ms : float;
  bdd_ms : float;
  speedup : float;
  nodes : int;
}

type size_row = {
  family : string;
  m : int;
  letters : int;
  t_size : int;
  t_nodes : int;
  p_nodes : int;
  revised_nodes : int;
}

let reps = 3

let best_of f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let elapsed = (Unix.gettimeofday () -. t0) *. 1000. in
    if elapsed < !best then best := elapsed;
    result := Some r
  done;
  (Option.get !result, !best)

(* One KB, many queries: per-query SAT vs compile-once-then-diagram.
   [brute] adds the packed enumeration oracle on alphabets small enough
   to enumerate. *)
let serving_row ~bench ~brute ~vars t qs =
  let n = List.length vars in
  let sat_answers, sat_ms =
    best_of (fun () -> List.map (fun q -> Semantics.entails t q) qs)
  in
  let compiled, compile_ms =
    best_of (fun () -> Semantics.Compiled.compile t)
  in
  let bdd_answers, bdd_ms =
    best_of (fun () -> List.map (Semantics.Compiled.entails compiled) qs)
  in
  if sat_answers <> bdd_answers then
    failwith (Printf.sprintf "oracle mismatch (SAT vs BDD) in %s" bench);
  if brute then begin
    (* the enumeration oracle must range over the full alphabet of the
       queries too: a letter free in T is universally quantified by
       entailment, which a truncated enumeration would read as false *)
    let brute_answers = List.map (fun q -> Models.entails_on vars t q) qs in
    if brute_answers <> bdd_answers then
      failwith (Printf.sprintf "oracle mismatch (brute vs BDD) in %s" bench)
  end;
  {
    bench;
    n;
    queries = List.length qs;
    sat_ms;
    compile_ms;
    bdd_ms;
    speedup = sat_ms /. Float.max bdd_ms 1e-6;
    nodes = Semantics.Compiled.size compiled;
  }

let serving_rows () =
  let st = Data.fresh_state () in
  (* random CNF-ish KB on 16 letters: small enough for the packed
     brute-force third oracle *)
  let vars16 = Gen.letters 16 in
  let t16 =
    Formula.conj2
      (Data.sat_formula st ~vars:vars16 ~depth:3)
      (Gen.cnf3 st ~vars:vars16 ~nclauses:12)
  in
  let qs16 = List.init 48 (fun _ -> Gen.formula st ~vars:vars16 ~depth:2) in
  (* implication chain on 40 letters: alphabet far beyond enumeration,
     queries probe reachability both ways along the chain *)
  let vars40 = Gen.letters 40 in
  let arr = Array.of_list vars40 in
  let t40 =
    Formula.and_
      (List.init 39 (fun i ->
           Formula.or_
             [ Formula.not_ (Formula.var arr.(i)); Formula.var arr.(i + 1) ]))
  in
  let qs40 =
    List.init 48 (fun i ->
        let a = (i * 13) mod 40 and b = (i * 29 + 7) mod 40 in
        Formula.or_
          [ Formula.not_ (Formula.var arr.(a)); Formula.var arr.(b) ])
  in
  [
    serving_row ~bench:"random-cnf" ~brute:true ~vars:vars16 t16 qs16;
    serving_row ~bench:"implication-chain" ~brute:false ~vars:vars40 t40 qs40;
  ]

(* Compiled sizes of the Theorem 3.6 witness family: T_n, P_n, and the
   Dalal revision computed on the diagrams, next to the formula size. *)
let size_rows () =
  List.map
    (fun m ->
      let u = Witness.Threesat.sub_universe 3 (List.init m (fun i -> i)) in
      let fam = Witness.Dalal_family.make u in
      let alphabet = Witness.Dalal_family.alphabet fam in
      let t = fam.Witness.Dalal_family.t_n in
      let p = fam.Witness.Dalal_family.p_n in
      let mgr = Bdd.manager (Semantics.Compiled.order
                               (Semantics.Compiled.compile
                                  (Formula.conj2 t p))) in
      Bdd.extend mgr alphabet;
      let tn = Bdd.of_formula mgr t in
      let pn = Bdd.of_formula mgr p in
      let rn = Bdd.Revise.dalal mgr tn pn in
      {
        family = "dalal-3.6";
        m;
        letters = List.length alphabet;
        t_size = Formula.size t;
        t_nodes = Bdd.node_count tn;
        p_nodes = Bdd.node_count pn;
        revised_nodes = Bdd.node_count rn;
      })
    [ 2; 4; 6; 8 ]

(* Sifting ablation: an interleaved-dependency disjunction compiled
   under the worst-case blocked order; one Rudell pass must only ever
   shrink it, and must not move any answer. *)
let sift_row () =
  let k = 8 in
  let xs = Gen.letters ~prefix:"sx" k and ys = Gen.letters ~prefix:"sy" k in
  let f =
    Formula.or_
      (List.map2
         (fun x y -> Formula.conj2 (Formula.var x) (Formula.var y))
         xs ys)
  in
  let mgr = Bdd.manager (xs @ ys) in
  let node = Bdd.of_formula mgr f in
  let before = Bdd.node_count node in
  let count_before = Bdd.sat_count mgr node in
  Bdd.sift mgr;
  let after = Bdd.node_count node in
  let count_after = Bdd.sat_count mgr node in
  if count_before <> count_after then
    failwith "sifting changed a model count";
  (before, after)

(* -- artifact + gate ------------------------------------------------------ *)

let bdd_json_path () =
  Option.value (Sys.getenv_opt "REVKB_BENCH_BDD_JSON") ~default:"BENCH_bdd.json"

let json_of_serving r =
  let js = Revkb_obs.Export.json_string in
  let jf = Revkb_obs.Export.json_float in
  Printf.sprintf
    "{\"bench\": %s, \"n\": %d, \"queries\": %d, \"sat_wall_ms\": %s, \
     \"compile_wall_ms\": %s, \"bdd_wall_ms\": %s, \"speedup\": %s, \
     \"nodes\": %d}"
    (js r.bench) r.n r.queries (jf r.sat_ms) (jf r.compile_ms) (jf r.bdd_ms)
    (jf r.speedup) r.nodes

let json_of_size r =
  Printf.sprintf
    "{\"family\": %s, \"m\": %d, \"letters\": %d, \"t_formula_size\": %d, \
     \"t_nodes\": %d, \"p_nodes\": %d, \"revised_nodes\": %d}"
    (Revkb_obs.Export.json_string r.family)
    r.m r.letters r.t_size r.t_nodes r.p_nodes r.revised_nodes

let write_bdd_json serving sizes (sift_before, sift_after) =
  let file = bdd_json_path () in
  let oc = open_out file in
  let array rows = String.concat ",\n    " rows in
  Printf.fprintf oc
    "{\n  \"serving\": [\n    %s\n  ],\n  \"sizes\": [\n    %s\n  ],\n\
    \  \"sift\": {\"initial_nodes\": %d, \"sifted_nodes\": %d}\n}\n"
    (array (List.map json_of_serving serving))
    (array (List.map json_of_size sizes))
    sift_before sift_after;
  close_out oc;
  Printf.printf "  [%d serving + %d size rows -> %s]\n"
    (List.length serving) (List.length sizes) file

let bdd_gate serving (sift_before, sift_after) =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun r ->
      if r.speedup < 10.0 then
        fail "%s (n=%d): compiled speedup %.1fx < 10x over per-query SAT"
          r.bench r.n r.speedup)
    serving;
  if sift_after > sift_before then
    fail "sifting grew the diagram: %d -> %d nodes" sift_before sift_after;
  match !failures with
  | [] -> ()
  | fs ->
      List.iter (fun s -> Printf.eprintf "REGRESSION: %s\n" s) (List.rev fs);
      exit 1

let compiled_serving () =
  Report.subsection
    "Compiled serving: ROBDD read path vs per-query SAT (vs brute force)";
  Report.para
    "  one KB, 48 entailment queries; answers asserted equal across every\n\
    \  oracle.  Fails on <10x compiled speedup or a sifting pass that\n\
    \  grows a diagram.";
  let serving = serving_rows () in
  Report.table
    [ "bench"; "n"; "queries"; "48 SAT"; "compile"; "48 BDD"; "speedup"; "nodes" ]
    (List.map
       (fun r ->
         [
           r.bench;
           string_of_int r.n;
           string_of_int r.queries;
           Printf.sprintf "%.2f ms" r.sat_ms;
           Printf.sprintf "%.2f ms" r.compile_ms;
           Printf.sprintf "%.3f ms" r.bdd_ms;
           Printf.sprintf "%.0fx" r.speedup;
           string_of_int r.nodes;
         ])
       serving);
  let sizes = size_rows () in
  Report.table
    [ "family"; "m"; "letters"; "|T| formula"; "T nodes"; "P nodes"; "T*P nodes" ]
    (List.map
       (fun r ->
         [
           r.family;
           string_of_int r.m;
           string_of_int r.letters;
           string_of_int r.t_size;
           string_of_int r.t_nodes;
           string_of_int r.p_nodes;
           string_of_int r.revised_nodes;
         ])
       sizes);
  let sift = sift_row () in
  let before, after = sift in
  Report.para
    (Printf.sprintf
       "  sifting the blocked-order interleaving: %d -> %d nodes" before
       after);
  write_bdd_json serving sizes sift;
  bdd_gate serving sift

let run () =
  Report.section "Compilation ablations (EXA variants, off-line/on-line, Horn LUB)";
  exa_ablation ();
  offline_online ();
  horn_lub ();
  compiled_serving ()
