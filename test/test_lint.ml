(* Tests for lib/lint: one seeded violation and one clean exemplar per
   rule, allowlist-comment behavior, baseline parsing/diffing, and a
   self-run of the linter over the real tree (the fixture strings are
   the spec for each rule; the self-run is the gate that keeps the repo
   at zero fresh findings). *)

module F = Lint.Finding
module E = Lint.Engine
module A = Lint.Allowlist

let input path content = { E.path; content }

(* A lib/ fixture needs an interface companion or every test would also
   see the R5 missing-mli finding. *)
let with_mli path content = [ input path content; input (path ^ "i") "" ]

(* Lint a single implementation file, no usage sources. *)
let lint1 ?(path = "lib/fixture/fixture.ml") content =
  E.analyze (with_mli path content)

let contains s affix =
  let n = String.length affix in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = affix || go (i + 1))
  in
  go 0

let rules fs = List.map (fun (f : F.t) -> F.rule_id f.rule) fs
let keys fs = List.map (fun (f : F.t) -> f.key) fs

let has_rule r fs = List.mem r (rules fs)

let check_rules what expected fs =
  Alcotest.(check (list string)) what expected (rules fs)

(* -- R1: domain-safety ----------------------------------------------------- *)

let test_r1_violation () =
  let fs = lint1 "let cache : (int, int) Hashtbl.t = Hashtbl.create 16\n" in
  check_rules "unguarded global Hashtbl" [ "R1" ] fs;
  let f = List.hd fs in
  Alcotest.(check int) "line" 1 f.line;
  Alcotest.(check string) "key names the binding" "cache" f.key

let test_r1_clean () =
  let fs =
    lint1
      "let guarded = Atomic.make 0\n\
       let local_ok () = Hashtbl.create 16\n\
       (* lint: domain-safe only touched under m *)\n\
       let justified = ref 0\n"
  in
  check_rules "Atomic, local and justified state all pass" [] fs

(* -- R2: shift-overflow ---------------------------------------------------- *)

let test_r2_violation () =
  let fs = lint1 "let f n = 1 lsl n\n" in
  check_rules "unbounded shift" [ "R2" ] fs;
  let f = List.hd fs in
  Alcotest.(check string) "key renders the shift" "f:lsl n" f.key;
  Alcotest.(check int) "line" 1 f.line

let test_r2_dominated () =
  let fs =
    lint1
      "let f n =\n\
      \  assert (n <= Sys.int_size - 2);\n\
      \  1 lsl n\n\
       let g n = if n > 10 then invalid_arg \"too wide\" else 1 lsl n\n\
       let h = 1 lsl 61\n"
  in
  check_rules "assert, raising guard and constant all dominate" [] fs

let test_r2_const_too_wide () =
  let fs = lint1 "let overflow = 1 lsl 62\n" in
  check_rules "statically out-of-range shift" [ "R2" ] fs

let test_r2_cross_module_const () =
  (* The bound constant lives in another (usage-only) file: the
     constant table must resolve Width.limit across files. *)
  let fs =
    E.analyze
      (with_mli "lib/fixture/width.ml" "let limit = 40\n"
      @ with_mli "lib/fixture/use.ml"
          "let f n =\n  assert (n <= Width.limit);\n  1 lsl n\n")
  in
  check_rules "cross-module constant bound accepted" [] fs

(* -- R3: obs contract ------------------------------------------------------ *)

let test_r3_namespace () =
  let fs =
    lint1
      "module Obs = Revkb_obs.Obs\n\
       let c = Obs.counter \"bogus.metric\"\n\
       let f () = Obs.incr c\n"
  in
  check_rules "unregistered namespace" [ "R3" ] fs;
  Alcotest.(check (list string))
    "key carries the name"
    [ "namespace:bogus.metric" ]
    (keys fs)

let test_r3_shape () =
  let fs =
    lint1
      "module Obs = Revkb_obs.Obs\n\
       let c = Obs.counter \"sat\"\n\
       let f () = Obs.incr c\n"
  in
  check_rules "undotted name" [ "R3" ] fs

let test_r3_unbumped () =
  let fs =
    lint1
      "module Obs = Revkb_obs.Obs\nlet c_dead = Obs.counter \"sat.dead\"\n"
  in
  Alcotest.(check bool) "unbumped counter flagged" true (has_rule "R3" fs)

let test_r3_clean () =
  let fs =
    lint1
      "module Obs = Revkb_obs.Obs\n\
       let c = Obs.counter \"sat.solves\"\n\
       let f () = Obs.incr c\n"
  in
  check_rules "dotted registered namespace, bumped" [] fs

let test_r3_duplicate_registration () =
  let fs =
    E.analyze
      (with_mli "lib/fixture/a.ml"
         "module Obs = Revkb_obs.Obs\n\
          let c = Obs.counter \"sat.shared\"\n\
          let f () = Obs.incr c\n"
      @ with_mli "lib/fixture/b.ml"
          "module Obs = Revkb_obs.Obs\n\
           let c = Obs.counter \"sat.shared\"\n\
           let g () = Obs.incr c\n")
  in
  Alcotest.(check bool) "both sites flagged" true (List.length fs >= 2);
  Alcotest.(check bool) "rule is R3" true (List.for_all
    (fun (f : F.t) -> f.rule = F.R3) fs)

(* -- R4: exception hygiene ------------------------------------------------- *)

let test_r4_violations () =
  let fs =
    lint1
      "let f x = try x () with _ -> 0\nlet g () = failwith \"boom\"\n"
  in
  check_rules "catch-all and failwith" [ "R4"; "R4" ] fs

let test_r4_outside_lib () =
  (* R4 is scoped to lib/: drivers may failwith. *)
  let fs =
    E.analyze [ input "bench/fixture.ml" "let g () = failwith \"boom\"\n" ]
  in
  check_rules "bench failwith tolerated" [] fs

let test_r4_clean () =
  let fs =
    lint1 "let f x = try x () with Not_found -> 0\n"
  in
  check_rules "specific handler passes" [] fs

(* -- R5: interface completeness -------------------------------------------- *)

let test_r5_missing_mli () =
  let fs = E.analyze [ input "lib/fixture/lone.ml" "let x = 1\n" ] in
  Alcotest.(check (list string))
    "missing .mli flagged"
    [ "missing-mli:lib/fixture/lone.ml" ]
    (keys (List.filter (fun (f : F.t) -> f.rule = F.R5) fs))

let test_r5_unreachable_value () =
  let ml = input "lib/fixture/api.ml" "let used = 1\nlet dead = 2\n" in
  let mli =
    input "lib/fixture/api.mli" "val used : int\nval dead : int\n"
  in
  let user = input "bin/fixture_user.ml" "let () = ignore Api.used\n" in
  let fs = E.analyze [ ml; mli; user ] in
  Alcotest.(check (list string))
    "only the unreferenced val is flagged" [ "unreachable:dead" ]
    (keys (List.filter (fun (f : F.t) -> f.rule = F.R5) fs))

(* A lib/ module exporting one value per caller kind, with the callers
   fed in as usage sources the way revkb_lint feeds test/, examples/
   and revbench/. *)
let r5_keys ?mli vals callers =
  let decl = String.concat "" (List.map (Printf.sprintf "val %s : int\n") vals) in
  let defs = String.concat "" (List.map (Printf.sprintf "let %s = 1\n") vals) in
  let ml = input "lib/fixture/api.ml" defs in
  let mli = input "lib/fixture/api.mli" (Option.value mli ~default:decl) in
  let usage =
    List.map
      (fun (path, v) -> input path (Printf.sprintf "let () = ignore Api.%s\n" v))
      callers
  in
  keys
    (List.filter
       (fun (f : F.t) -> f.rule = F.R5)
       (E.analyze ~usage [ ml; mli ]))

let test_r5_test_only () =
  Alcotest.(check (list string))
    "a value only test/ calls is test-only API" [ "test-only:probe" ]
    (r5_keys [ "probe" ] [ ("test/test_api.ml", "probe") ])

let test_r5_real_callers () =
  Alcotest.(check (list string))
    "bench/ and examples/ callers are real; test/ is not"
    [ "test-only:by_test" ]
    (r5_keys
       [ "by_bench"; "by_example"; "by_test" ]
       [
         ("bench/fixture.ml", "by_bench");
         ("examples/fixture.ml", "by_example");
         ("test/test_api.ml", "by_test");
       ])

let test_r5_iface_ok () =
  Alcotest.(check (list string))
    "iface-ok with a reason suppresses test-only" [ "test-only:plain" ]
    (r5_keys
       ~mli:
         "val plain : int\n\n\n\n(* lint: iface-ok test_api needs it *)\n\
          val kept : int\n"
       [ "kept"; "plain" ]
       [ ("test/test_api.ml", "kept"); ("test/test_api.ml", "plain") ])

(* -- R0 + allowlist mechanics ---------------------------------------------- *)

let test_r0_stale_exemption () =
  let fs = lint1 "(* lint: shift-ok bounded by caller *)\nlet x = 1\n" in
  Alcotest.(check (list string))
    "an exemption that suppresses nothing is stale" [ "stale:shift-ok" ]
    (keys fs)

let test_r0_bad_tag () =
  let fs = lint1 "(* lint: no-such-tag whatever *)\nlet x = 1\n" in
  check_rules "unknown tag reported" [ "R0" ] fs

let test_r0_empty_reason () =
  let fs = lint1 "(* lint: shift-ok *)\nlet f n = 1 lsl n\n" in
  (* The reasonless comment suppresses nothing AND is itself a finding. *)
  Alcotest.(check (list string))
    "R0 plus the undamped R2" [ "R0"; "R2" ] (rules fs)

let test_allowlist_window () =
  let fs =
    lint1 "(* lint: shift-ok bounded by caller *)\n\nlet f n = 1 lsl n\n"
  in
  check_rules "suppression reaches end-of-comment + 2" [] fs;
  let fs =
    lint1 "(* lint: shift-ok bounded by caller *)\n\n\nlet f n = 1 lsl n\n"
  in
  check_rules "one line past the window suppresses nothing: stale, and R2"
    [ "R0"; "R2" ] fs

let test_allowlist_in_string_ignored () =
  let entries = A.scan "let s = \"(* lint: shift-ok nope *)\"\n" in
  Alcotest.(check int) "comment inside a string is not an entry" 0
    (List.length entries)

(* -- parse failures are findings, not crashes ------------------------------ *)

let test_parse_error () =
  let fs = lint1 "let let let\n" in
  check_rules "syntax error becomes R0" [ "R0" ] fs

let test_rule_ids () =
  Alcotest.(check string) "id" "R2" (F.rule_id F.R2);
  match lint1 "let f n = 1 lsl n\n" with
  | [ f ] ->
      Alcotest.(check bool) "name" true
        (contains (F.to_json f) {|"name": "shift-overflow"|})
  | _ -> Alcotest.fail "expected exactly one finding"

(* -- baseline -------------------------------------------------------------- *)

let test_baseline_roundtrip () =
  let f =
    match lint1 "let f n = 1 lsl n\n" with
    | [ f ] -> f
    | _ -> Alcotest.fail "expected exactly one finding"
  in
  let line = E.baseline_line f in
  let path = Filename.temp_file "lint_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc ("# comment\n\n" ^ line ^ "\n");
      close_out oc;
      let r =
        E.run ~baseline:path
          (with_mli "lib/fixture/fixture.ml" "let f n = 1 lsl n\n")
      in
      Alcotest.(check int) "finding still reported" 1 (List.length r.findings);
      Alcotest.(check int) "but not fresh" 0 (List.length r.fresh);
      Alcotest.(check int) "baselined" 1 (List.length r.baselined))

let test_json_render () =
  let r = E.run (with_mli "lib/fixture/fixture.ml" "let f n = 1 lsl n\n") in
  let json = E.render_json r in
  Alcotest.(check bool) "has rule field" true
    (contains json {|"rule": "R2"|});
  Alcotest.(check bool) "has summary line" true
    (contains json {|"type": "summary"|})

(* -- self-run: the real tree stays clean vs the checked-in baseline -------- *)

let repo_root () =
  (* dune runs tests in _build/default/test; the sources three levels up. *)
  let rec find dir n =
    if n = 0 then None
    else if Sys.file_exists (Filename.concat dir "lint.baseline") then Some dir
    else find (Filename.concat dir Filename.parent_dir_name) (n - 1)
  in
  find (Sys.getcwd ()) 6

let test_self_run () =
  match repo_root () with
  | None -> () (* source tree not reachable from the sandbox: skip *)
  | Some root ->
      let at p = Filename.concat root p in
      (* Strip the root prefix so paths read as revkb_lint's do: baseline
         paths stay relative and R5 sees which usage files are tests. *)
      let relative dirs =
        E.collect_tree
          (List.filter Sys.file_exists (List.map at dirs))
        |> List.map (fun (path, content) ->
               let n = String.length root + 1 in
               input (String.sub path n (String.length path - n)) content)
      in
      let inputs = relative [ "lib"; "bin"; "bench" ] in
      let usage = relative [ "test"; "examples"; "revbench" ] in
      let r = E.run ~usage ~baseline:(at "lint.baseline") inputs in
      let show fs =
        String.concat "\n" (List.map F.to_table_row fs)
      in
      Alcotest.(check string) "no fresh findings vs baseline" "" (show r.fresh)

let () =
  Alcotest.run "lint"
    [
      ( "r1-domain-safety",
        [
          Alcotest.test_case "seeded violation" `Quick test_r1_violation;
          Alcotest.test_case "clean exemplars" `Quick test_r1_clean;
        ] );
      ( "r2-shift-overflow",
        [
          Alcotest.test_case "seeded violation" `Quick test_r2_violation;
          Alcotest.test_case "dominating checks" `Quick test_r2_dominated;
          Alcotest.test_case "constant too wide" `Quick test_r2_const_too_wide;
          Alcotest.test_case "cross-module bound" `Quick
            test_r2_cross_module_const;
        ] );
      ( "r3-obs-contract",
        [
          Alcotest.test_case "bad namespace" `Quick test_r3_namespace;
          Alcotest.test_case "undotted name" `Quick test_r3_shape;
          Alcotest.test_case "unbumped counter" `Quick test_r3_unbumped;
          Alcotest.test_case "clean registration" `Quick test_r3_clean;
          Alcotest.test_case "duplicate registration" `Quick
            test_r3_duplicate_registration;
        ] );
      ( "r4-exception-hygiene",
        [
          Alcotest.test_case "seeded violations" `Quick test_r4_violations;
          Alcotest.test_case "scoped to lib/" `Quick test_r4_outside_lib;
          Alcotest.test_case "specific handler ok" `Quick test_r4_clean;
        ] );
      ( "r5-interface-completeness",
        [
          Alcotest.test_case "missing mli" `Quick test_r5_missing_mli;
          Alcotest.test_case "unreachable value" `Quick
            test_r5_unreachable_value;
          Alcotest.test_case "test-only value" `Quick test_r5_test_only;
          Alcotest.test_case "bench and examples are callers" `Quick
            test_r5_real_callers;
          Alcotest.test_case "iface-ok suppresses test-only" `Quick
            test_r5_iface_ok;
        ] );
      ( "allowlist",
        [
          Alcotest.test_case "unknown tag is R0" `Quick test_r0_bad_tag;
          Alcotest.test_case "empty reason is R0" `Quick test_r0_empty_reason;
          Alcotest.test_case "stale exemption is R0" `Quick
            test_r0_stale_exemption;
          Alcotest.test_case "window" `Quick test_allowlist_window;
          Alcotest.test_case "strings ignored" `Quick
            test_allowlist_in_string_ignored;
        ] );
      ( "driver",
        [
          Alcotest.test_case "parse error is R0" `Quick test_parse_error;
          Alcotest.test_case "rule ids" `Quick test_rule_ids;
          Alcotest.test_case "baseline roundtrip" `Quick
            test_baseline_roundtrip;
          Alcotest.test_case "json render" `Quick test_json_render;
          Alcotest.test_case "self-run vs baseline" `Quick test_self_run;
        ] );
    ]
