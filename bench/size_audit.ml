(* Polynomial-growth audit of the compact constructions.

   Tables 1-2 of the paper are YES/NO claims about representation size:
   the YES entries promise polynomial-size compact representations, the
   NO entries are driven by families whose explicit representations blow
   up.  This section measures both sides on deterministic sweeps and
   *asserts* the verdicts: every YES construction must fit a polynomial
   growth order, every hardness family must fit a superpolynomial one.
   A misfit in either direction is a failed check: the run exits 1.

   Sizes are reported twice — tree (every occurrence counted) and DAG
   (distinct subterms, hash-consing) — because several constructions
   repeat whole subformulas (renamed theories, EXA counters) and a claim
   of polynomiality is only honest if the *tree* measure is polynomial;
   the DAG column shows how much a pointer-sharing representation would
   save. *)

open Logic
module Growth = Revkb_analysis.Growth
module Metrics = Revkb_analysis.Metrics

(* Fit the tree-size column and check the expected verdict. *)
let audit expected points =
  let v = Growth.classify_points points in
  let ok =
    match (v, expected) with
    | Growth.Polynomial _, `Poly | Growth.Superpolynomial _, `Super -> true
    | _ -> false
  in
  Report.para
    (Printf.sprintf "  growth: %s — %s"
       (Format.asprintf "%a" Growth.pp_verdict v)
       (Report.check ok))

let letters n = List.init n (fun i -> Formula.v (Printf.sprintf "x%d" (i + 1)))

let size_row param f =
  let m = Metrics.of_formula f in
  ( (float_of_int param, float_of_int m.Metrics.tree_size),
    [
      string_of_int param;
      string_of_int m.Metrics.tree_size;
      string_of_int m.Metrics.dag_size;
      Printf.sprintf "%.2f" (Metrics.sharing m);
    ] )

(* The constructions along a sweep are independent of each other, so the
   build+measure work fans across the pool; row order (and therefore the
   growth fit) is the parameter order regardless of job count. *)
let sweep title expected header params build =
  Report.subsection title;
  flush stdout;
  let pool = Revkb_parallel.Pool.global () in
  let measured =
    Revkb_parallel.Pool.map_list pool (fun n -> size_row n (build n)) params
  in
  Report.table [ header; "tree"; "dag"; "sharing" ] (List.map snd measured);
  audit expected (List.map fst measured)

(* -- YES entries: the compact constructions ------------------------------- *)

(* Theorem 3.4 (Dalal, general/query): T forces all letters true, P the
   first half false, so k_{T,P} = n/2 and the EXA counters are fully
   exercised. *)
let dalal_thm34 () =
  sweep "Dalal Thm 3.4 (general, query-equivalent)" `Poly "n"
    [ 4; 6; 8; 10; 12; 14; 16; 24; 32; 48; 64; 100 ]
    (fun n ->
      let t = Formula.and_ (letters n) in
      let p =
        Formula.and_
          (List.filteri (fun i _ -> i < n / 2) (letters n)
          |> List.map Formula.not_)
      in
      Compact.Construct.revise Revision.Model_based.Dalal (Kb.make t) p)

(* Theorem 3.5 (Weber): T[Omega/Z] AND P — a renaming plus a conjunction,
   never larger than the input. *)
let weber_thm35 () =
  sweep "Weber Thm 3.5 (general, query-equivalent)" `Poly "n"
    [ 5; 10; 20; 40; 80; 160 ]
    (fun n ->
      let t = Formula.and_ (letters n @ [ Parser.formula_of_string "x1 | x2" ]) in
      let p = Parser.formula_of_string "~x1 | ~x2" in
      Compact.Construct.revise Revision.Model_based.Weber (Kb.make t) p)

(* Formula (5) (Winslett, bounded |P|): linear in |T| with a 2^O(|V(P)|)
   constant, here |V(P)| = 2. *)
let winslett_bounded () =
  sweep "Winslett formula (5) (bounded |P|, logically equivalent)" `Poly "|T|"
    [ 5; 10; 20; 40; 80; 160 ]
    (fun n ->
      Compact.Bounded.winslett
        (Formula.and_ (letters n))
        (Parser.formula_of_string "~x1 | ~x2"))

(* Iterated sweeps: fixed alphabet, growing number of revision steps.
   Alternating revisions keep every prefix satisfiable. *)
let iterated_ps m =
  List.init m (fun i ->
      let x1 = Formula.v "x1" in
      if i mod 2 = 0 then Formula.not_ x1 else x1)

let iterated op m =
  let t = Formula.and_ (letters 4) in
  Compact.Construct.(final t (iterate op (Kb.make t) (iterated_ps m)))

(* Theorem 5.1 (iterated Dalal): each step renames the alphabet and adds
   O(|X|^2 + |P^i|). *)
let iterated_dalal () =
  sweep "Dalal Thm 5.1 (iterated, query-equivalent)" `Poly "steps m"
    [ 2; 3; 4; 5; 6; 7; 8 ]
    (iterated Revision.Model_based.Dalal)

(* Formula (10) (iterated Weber): Psi_i = Psi_{i-1}[Omega_i/Z_i] AND P^i. *)
let iterated_weber () =
  sweep "Weber formula (10) (iterated, query-equivalent)" `Poly "steps m"
    [ 2; 3; 4; 5; 6; 7; 8 ]
    (iterated Revision.Model_based.Weber)

(* -- NO entries: the hardness families ------------------------------------ *)

(* Section 3.1 examples: the *explicit* (disjunction-of-worlds)
   representations blow up exponentially in m. *)
let explicit_family title params make naive_size world_count =
  Report.subsection title;
  flush stdout;
  let pool = Revkb_parallel.Pool.global () in
  let measured =
    Revkb_parallel.Pool.map_list pool
      (fun m ->
        let ex = make m in
        let size = naive_size ex in
        ( (float_of_int m, float_of_int size),
          [ string_of_int m; string_of_int size; string_of_int (world_count ex) ]
        ))
      params
  in
  Report.table [ "m"; "naive size"; "worlds" ] (List.map snd measured);
  audit `Super (List.map fst measured)

let nebel_explicit () =
  explicit_family "Nebel example (Section 3.1): explicit GFUV representation"
    [ 2; 3; 4; 5; 6; 7; 8; 9 ]
    Witness.Nebel_example.make Witness.Nebel_example.naive_size
    Witness.Nebel_example.world_count

(* World enumeration walks subsets of T2 (3m members), so the sweep stops
   at m = 6 — the blow-up is unmistakable well before that. *)
let winslett_explicit () =
  explicit_family
    "Winslett example (Section 3.1): worlds explode with |P| constant"
    [ 1; 2; 3; 4; 5; 6 ]
    Witness.Winslett_example.make Witness.Winslett_example.naive_size
    Witness.Winslett_example.world_count

(* The same explosion measured on a 100-letter alphabet: enumeration,
   counting, and the DNF build all run on the multi-word packed engine
   (the alphabet is far past the one-word width), so this row doubles as
   a production exercise of the wide path. *)
let wide_explicit () =
  explicit_family
    "Wide family (100 letters): explicit representation, multi-word engine"
    [ 2; 3; 4; 5; 6; 7; 8; 9 ]
    (fun m -> Witness.Wide_family.make ~n:100 ~m)
    Witness.Wide_family.naive_size Witness.Wide_family.world_count

let run () =
  let failed_before = Atomic.get Report.failed_checks in
  Report.section "Size audit: growth orders of the compact constructions";
  Report.para
    "  Fits tree-size sweeps against polynomial and exponential growth\n\
    \  hypotheses (least squares on log-log vs semi-log; better R^2 wins)\n\
    \  and asserts the paper's Table 1-2 verdicts.  DAG = distinct subterms.";
  dalal_thm34 ();
  weber_thm35 ();
  winslett_bounded ();
  iterated_dalal ();
  iterated_weber ();
  nebel_explicit ();
  winslett_explicit ();
  wide_explicit ();
  if Atomic.get Report.failed_checks = failed_before then
    Report.para "  all growth verdicts agree with the paper."
