(* CDCL solver tests: cross-checks against brute force, classic hard
   instances, incremental use, and the Vec/Heap substrate. *)

module S = Satsolver.Solver
module L = Satsolver.Lit
module V = Satsolver.Vec
module H = Satsolver.Heap

(* -- Lit ---------------------------------------------------------------- *)

let test_lit_roundtrip () =
  for i = 1 to 50 do
    Helpers.check_int "pos" i (L.to_int (L.of_int i));
    Helpers.check_int "neg" (-i) (L.to_int (L.of_int (-i)))
  done;
  Helpers.check_int "var" 4 (L.var (L.of_var 4));
  Helpers.check_bool "neg flips sign" false (L.is_pos (L.neg (L.of_var 3)));
  Helpers.check_int "double neg" (L.of_var 3) (L.neg (L.neg (L.of_var 3)))

let test_lit_zero () =
  Alcotest.check_raises "of_int 0" (Invalid_argument "Lit.of_int: zero")
    (fun () -> ignore (L.of_int 0))

(* -- Vec ---------------------------------------------------------------- *)

let test_vec_basic () =
  let v = V.create () in
  Helpers.check_bool "empty" true (V.is_empty v);
  for i = 0 to 99 do
    V.push v i
  done;
  Helpers.check_int "size" 100 (V.size v);
  Helpers.check_int "get" 42 (V.get v 42);
  V.set v 42 (-1);
  Helpers.check_int "set" (-1) (V.get v 42);
  Helpers.check_int "pop" 99 (V.pop v);
  Helpers.check_int "last after pop" 98 (V.last v);
  V.shrink v 10;
  Helpers.check_int "shrink" 10 (V.size v);
  V.filter_in_place (fun x -> x mod 2 = 0) v;
  Helpers.check_int "filter" 5 (V.size v);
  Helpers.check_bool "exists" true (V.exists (fun x -> x = 4) v);
  V.clear v;
  Helpers.check_bool "cleared" true (V.is_empty v)

let test_vec_swap_remove () =
  let v = V.of_list [ 1; 2; 3; 4 ] in
  V.swap_remove v 0;
  Helpers.check_int "size after swap_remove" 3 (V.size v);
  Helpers.check_int "swapped-in element" 4 (V.get v 0)

let test_vec_fold () =
  let v = V.of_list [ 1; 2; 3 ] in
  Helpers.check_int "fold sum" 6 (V.fold ( + ) 0 v);
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3 ] (V.to_list v)

(* -- Heap --------------------------------------------------------------- *)

let test_heap_order () =
  let h = H.create (ref [| 5.0; 1.0; 9.0; 3.0; 7.0 |]) in
  List.iter (H.insert h) [ 0; 1; 2; 3; 4 ];
  let order = List.init 5 (fun _ -> Option.get (H.pop_max h)) in
  Alcotest.(check (list int)) "descending by score" [ 2; 4; 0; 3; 1 ] order;
  Helpers.check_bool "empty pop" true (H.pop_max h = None)

let test_heap_update () =
  let score = ref (Array.make 4 0.0) in
  let h = H.create score in
  List.iter (H.insert h) [ 0; 1; 2; 3 ];
  (* The heap reads through the reference: a grown replacement array is
     seen without re-creating the heap. *)
  score := Array.append !score [| 0.0 |];
  !score.(3) <- 10.0;
  H.update h 3;
  Helpers.check_int "bumped to top" 3 (Option.get (H.pop_max h))

let test_heap_no_duplicates () =
  let h = H.create (ref (Array.make 2 0.0)) in
  H.insert h 1;
  H.insert h 1;
  Helpers.check_int "size" 1 (H.size h)

(* -- Search trace pinned ------------------------------------------------ *)

(* The solver's decisions are a function of clause literal order and of
   every heap comparison.  These counts and models were recorded from the
   list-based [add_clause] and closure-scored heap; a change to the data
   structures that keeps the search must reproduce them exactly.  PHP(9,8)
   runs long enough for restarts and learnt-clause reduction. *)
let php_stats n =
  let s = S.create () in
  let var p h = (p * n) + h in
  for p = 0 to n do
    S.add_clause s (List.init n (fun h -> L.of_var (var p h)))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        S.add_clause s
          [ L.of_var ~neg:true (var p1 h); L.of_var ~neg:true (var p2 h) ]
      done
    done
  done;
  Helpers.check_bool "php unsat" false (S.solve s);
  let st = S.stats s in
  [ st.S.decisions; st.S.propagations; st.S.conflicts; st.S.learned; st.S.restarts ]

(* Random 3-CNF near the threshold, eight incremental solves under
   assumptions each; a model is read as the bits of its 50 variables. *)
let incremental_stats () =
  let st = Random.State.make [| 1995 |] in
  List.concat_map
    (fun _ ->
      let nv = 50 in
      let s = S.create () in
      for _ = 1 to 213 do
        S.add_clause s
          (List.init 3 (fun _ ->
               L.of_var ~neg:(Random.State.bool st) (Random.State.int st nv)))
      done;
      let models =
        List.init 8 (fun i ->
            let assumptions =
              List.init (i mod 4) (fun j -> L.of_var ~neg:(j mod 2 = 0) (i + j))
            in
            if S.solve ~assumptions s then
              List.fold_left
                (fun acc v ->
                  (acc lsl 1) lor Bool.to_int (S.value s (L.of_var v)))
                1 (List.init nv Fun.id)
            else 0)
      in
      let st = S.stats s in
      models
      @ [ st.S.decisions; st.S.propagations; st.S.conflicts; st.S.learned; st.S.restarts ])
    (List.init 6 Fun.id)

let test_search_pinned () =
  Alcotest.(check (list int))
    "php(8,7) and php(9,8)"
    [ 4146; 39194; 3393; 3392; 16; 36084; 394630; 29638; 29637; 107 ]
    (php_stats 7 @ php_stats 8);
  Alcotest.(check (list int))
    "incremental 3-CNF"
    [
      1223276120286504; 1223276120286504; 1223276120286504; 0;
      1156828823848070; 1210309748229484; 2098457546098476; 0;
      96; 849; 33; 33; 0;
      0; 0; 0; 0; 0; 0; 0; 0;
      97; 1111; 82; 81; 0;
      0; 0; 0; 0; 0; 0; 0; 0;
      31; 320; 26; 25; 0;
      1285736049730772; 1285736049730772; 1215367305553012; 1874992670269676;
      1874992670269676; 1874992670269676; 0; 0;
      85; 586; 20; 20; 0;
      1412479476259767; 0; 0; 0;
      1412479476259767; 1412479476259767; 1412479476259767; 0;
      69; 857; 47; 47; 0;
      1593375265315312; 0; 0; 2156325222937072;
      2156325222937072; 2156325222937072; 0; 0;
      65; 531; 24; 24; 0;
    ]
    (incremental_stats ())

(* -- Solver: brute-force cross-check ------------------------------------ *)

let brute_force_sat nv clauses =
  let sat = ref false in
  for code = 0 to (1 lsl nv) - 1 do
    let value l =
      let b = code land (1 lsl L.var l) <> 0 in
      if L.is_pos l then b else not b
    in
    if List.for_all (fun c -> List.exists value c) clauses then sat := true
  done;
  !sat

let random_clauses st nv nc =
  List.init nc (fun _ ->
      let len = 1 + Random.State.int st 3 in
      List.init len (fun _ ->
          L.of_var ~neg:(Random.State.bool st) (Random.State.int st nv)))

let test_random_cross_check () =
  let st = Random.State.make [| 2024 |] in
  for _ = 1 to 1000 do
    let nv = 1 + Random.State.int st 8 in
    let nc = Random.State.int st 35 in
    let clauses = random_clauses st nv nc in
    let s = S.create () in
    S.ensure_nvars s nv;
    List.iter (S.add_clause s) clauses;
    let expected = brute_force_sat nv clauses in
    let got = S.solve s in
    if got <> expected then
      Alcotest.failf "mismatch: brute=%b cdcl=%b (%d vars, %d clauses)"
        expected got nv nc;
    if got then begin
      (* The model must satisfy every clause. *)
      let ok =
        List.for_all (fun c -> List.exists (fun l -> S.value s l) c) clauses
      in
      Helpers.check_bool "model satisfies clauses" true ok
    end
  done

let test_pigeonhole_unsat () =
  (* PHP(n+1, n) is unsatisfiable and requires real search. *)
  List.iter
    (fun n ->
      let s = S.create () in
      let var p h = (p * n) + h in
      for p = 0 to n do
        S.add_clause s (List.init n (fun h -> L.of_var (var p h)))
      done;
      for h = 0 to n - 1 do
        for p1 = 0 to n do
          for p2 = p1 + 1 to n do
            S.add_clause s
              [ L.of_var ~neg:true (var p1 h); L.of_var ~neg:true (var p2 h) ]
          done
        done
      done;
      Helpers.check_bool (Printf.sprintf "php(%d,%d)" (n + 1) n) false
        (S.solve s))
    [ 3; 4; 5; 6 ]

let test_empty_and_unit () =
  let s = S.create () in
  Helpers.check_bool "empty problem is sat" true (S.solve s);
  S.add_clause s [ L.of_var 0 ];
  Helpers.check_bool "unit sat" true (S.solve s);
  Helpers.check_bool "unit value" true (S.value s (L.of_var 0));
  S.add_clause s [ L.neg (L.of_var 0) ];
  Helpers.check_bool "contradiction" false (S.solve s);
  Helpers.check_bool "ok false" false (S.ok s);
  S.add_clause s [ L.of_var 1 ];
  Helpers.check_bool "still unsat after more clauses" false (S.solve s)

let test_tautological_clause_dropped () =
  let s = S.create () in
  S.add_clause s [ L.of_var 0; L.neg (L.of_var 0) ];
  Helpers.check_bool "taut only" true (S.solve s)

(* [add_clause]'s array simplification against the list formulation it
   replaced: polymorphic [sort_uniq], tautology by membership, literals
   true at level 0 satisfy the clause, false ones are filtered out.  The
   inputs mix duplicates, complementary pairs, literals on level-0 units
   and on variables the solver has not allocated yet. *)
let reference_simplify value lits =
  let lits = List.sort_uniq compare lits in
  if
    List.exists (fun l -> List.mem (L.neg l) lits) lits
    || List.exists (fun l -> value l = Some true) lits
  then None
  else Some (List.filter (fun l -> value l <> Some false) lits)

let test_simplify_matches_list_reference () =
  let st = Random.State.make [| 15 |] in
  let show = function
    | None -> "satisfied"
    | Some ls -> String.concat " " (List.map (fun l -> string_of_int (L.to_int l)) ls)
  in
  for _ = 1 to 2000 do
    let nv = 1 + Random.State.int st 6 in
    let s = S.create () in
    S.ensure_nvars s nv;
    let fixed =
      Array.init nv (fun _ ->
          match Random.State.int st 3 with
          | 0 -> Some true
          | 1 -> Some false
          | _ -> None)
    in
    Array.iteri
      (fun v b ->
        Option.iter (fun b -> S.add_clause s [ L.of_var ~neg:(not b) v ]) b)
      fixed;
    let value l =
      if L.var l >= nv then None
      else Option.map (fun b -> b = L.is_pos l) fixed.(L.var l)
    in
    let lits =
      List.init (Random.State.int st 9) (fun _ ->
          L.of_var ~neg:(Random.State.bool st) (Random.State.int st (nv + 2)))
    in
    let expected = reference_simplify value lits in
    let got = Option.map Array.to_list (S.simplify s lits) in
    if got <> expected then
      Alcotest.failf "clause [%s]: array %s, list %s"
        (show (Some lits)) (show got) (show expected);
    S.add_clause s lits;
    match expected with
    | Some [] -> Helpers.check_bool "empty clause: unsat" false (S.ok s)
    | Some [ l ] ->
        Helpers.check_bool "unit clause: enqueued" true
          (S.solve s && S.value s l)
    | _ -> Helpers.check_bool "stored or dropped: still ok" true (S.ok s)
  done

let test_assumptions () =
  let s = S.create () in
  let a = L.of_var (S.new_var s) in
  let b = L.of_var (S.new_var s) in
  S.add_clause s [ L.neg a; b ];
  Helpers.check_bool "sat under a" true (S.solve ~assumptions:[ a ] s);
  Helpers.check_bool "b forced" true (S.value s b);
  Helpers.check_bool "sat under a & ~b is unsat" false
    (S.solve ~assumptions:[ a; L.neg b ] s);
  Helpers.check_bool "solver still usable" true (S.solve s)

let test_assumptions_conflicting () =
  let s = S.create () in
  let a = L.of_var (S.new_var s) in
  Helpers.check_bool "a & ~a assumptions" false
    (S.solve ~assumptions:[ a; L.neg a ] s);
  Helpers.check_bool "still ok" true (S.ok s)

let test_incremental_blocking () =
  (* Enumerate all models of (a | b) & (a | c) by blocking clauses. *)
  let s = S.create () in
  let a = L.of_var (S.new_var s) in
  let b = L.of_var (S.new_var s) in
  let c = L.of_var (S.new_var s) in
  S.add_clause s [ a; b ];
  S.add_clause s [ a; c ];
  let count = ref 0 in
  while S.solve s do
    incr count;
    let block =
      List.map
        (fun l -> if S.value s l then L.neg l else l)
        [ a; b; c ]
    in
    S.add_clause s block
  done;
  (* models: a** (4), ~a b c (1) => 5 *)
  Helpers.check_int "model count" 5 !count

let test_random_3cnf_hard () =
  (* Near the 3-SAT phase transition (ratio ~4.26); checks robustness,
     not a particular outcome. *)
  let st = Random.State.make [| 77 |] in
  for _ = 1 to 5 do
    let nv = 60 in
    let nc = 256 in
    let clauses =
      List.init nc (fun _ ->
          let rec distinct acc =
            if List.length acc = 3 then acc
            else begin
              let v = Random.State.int st nv in
              if List.mem v acc then distinct acc else distinct (v :: acc)
            end
          in
          List.map
            (fun v -> L.of_var ~neg:(Random.State.bool st) v)
            (distinct []))
    in
    let s = S.create () in
    List.iter (S.add_clause s) clauses;
    let sat = S.solve s in
    if sat then begin
      let ok =
        List.for_all (fun cl -> List.exists (fun l -> S.value s l) cl) clauses
      in
      Helpers.check_bool "model valid" true ok
    end
  done

let test_solve_twice_consistent () =
  let s = S.create () in
  let a = L.of_var (S.new_var s) in
  let b = L.of_var (S.new_var s) in
  S.add_clause s [ a; b ];
  Helpers.check_bool "first solve" true (S.solve s);
  let m1 = S.model s in
  Helpers.check_bool "second solve" true (S.solve s);
  let m2 = S.model s in
  Alcotest.(check (array bool)) "same model without new clauses" m1 m2

let test_learnt_clause_pressure () =
  (* Enumerate all models of a 12-variable parity-ish formula by blocking
     clauses: thousands of conflicts exercise learning and DB reduction. *)
  let s = S.create () in
  let n = 12 in
  S.ensure_nvars s n;
  (* x1 xor x2, x3 xor x4, ... : 2^6 models *)
  for i = 0 to (n / 2) - 1 do
    let a = L.of_var (2 * i) and b = L.of_var ((2 * i) + 1) in
    S.add_clause s [ a; b ];
    S.add_clause s [ L.neg a; L.neg b ]
  done;
  let count = ref 0 in
  while S.solve s do
    incr count;
    S.add_clause s
      (List.init n (fun v ->
           let l = L.of_var v in
           if S.value s l then L.neg l else l))
  done;
  Helpers.check_int "2^6 models" 64 !count

let test_ensure_nvars_idempotent () =
  let s = S.create () in
  S.ensure_nvars s 5;
  Helpers.check_int "five vars" 5 (S.nvars s);
  S.ensure_nvars s 3;
  Helpers.check_int "no shrink" 5 (S.nvars s);
  let v = S.new_var s in
  Helpers.check_int "next var" 5 v

(* The stats record must grow monotonically across solve calls, zero on
   [reset_stats], and resume counting afterwards. *)
let test_statistics_monotone () =
  let s = S.create () in
  S.add_clause s [ L.of_var 0; L.of_var 1 ];
  S.add_clause s [ L.neg (L.of_var 0); L.of_var 1 ];
  ignore (S.solve s);
  let st1 = S.stats s in
  Helpers.check_bool "propagations counted" true (st1.S.propagations >= 0);
  Helpers.check_bool "decisions counted" true (st1.S.decisions >= 0);
  Helpers.check_int "legacy getter agrees" st1.S.propagations
    (S.n_propagations s);
  ignore (S.solve s);
  ignore (S.solve ~assumptions:[ L.neg (L.of_var 1) ] s);
  let st2 = S.stats s in
  Helpers.check_bool "decisions monotone" true
    (st2.S.decisions >= st1.S.decisions);
  Helpers.check_bool "propagations monotone" true
    (st2.S.propagations >= st1.S.propagations);
  Helpers.check_bool "conflicts monotone" true
    (st2.S.conflicts >= st1.S.conflicts);
  Helpers.check_bool "learned monotone" true (st2.S.learned >= st1.S.learned);
  Helpers.check_bool "restarts monotone" true
    (st2.S.restarts >= st1.S.restarts);
  (* The unsat-under-assumptions probe must have worked at least once. *)
  Helpers.check_bool "some propagation happened" true
    (st2.S.propagations > 0);
  S.reset_stats s;
  let z = S.stats s in
  Helpers.check_int "reset decisions" 0 z.S.decisions;
  Helpers.check_int "reset propagations" 0 z.S.propagations;
  Helpers.check_int "reset conflicts" 0 z.S.conflicts;
  Helpers.check_int "reset learned" 0 z.S.learned;
  Helpers.check_int "reset restarts" 0 z.S.restarts;
  S.add_clause s [ L.of_var 2 ];
  S.add_clause s [ L.neg (L.of_var 2); L.of_var 3 ];
  ignore (S.solve s);
  let r = S.stats s in
  Helpers.check_bool "counting resumes after reset" true
    (r.S.propagations + r.S.decisions > 0)

(* -- DIMACS -------------------------------------------------------------- *)

let test_dimacs_parse () =
  let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let nvars, clauses = Satsolver.Dimacs.parse_string text in
  Helpers.check_int "nvars" 3 nvars;
  Helpers.check_int "nclauses" 2 (List.length clauses);
  let s = S.create () in
  Satsolver.Dimacs.load s clauses;
  Helpers.check_bool "sat" true (S.solve s)

(* Regression: the header's declared variable count must survive even
   when some declared variables appear in no clause, so the CLI's v line
   can cover them (they read false). *)
let test_dimacs_header_vars () =
  let text = "p cnf 5 2\n1 -2 0\n2 3 0\n" in
  let nvars, clauses = Satsolver.Dimacs.parse_string text in
  Helpers.check_int "declared nvars kept" 5 nvars;
  let s = S.create () in
  S.ensure_nvars s nvars;
  Satsolver.Dimacs.load s clauses;
  Helpers.check_bool "sat" true (S.solve s);
  Helpers.check_int "model padded to declared count" 5
    (Array.length (S.model s));
  (* A clause mentioning a variable beyond the header still raises the
     count. *)
  let nvars', _ = Satsolver.Dimacs.parse_string "p cnf 2 1\n1 7 0\n" in
  Helpers.check_int "scan can exceed header" 7 nvars'

(* Malformed input must raise [Parse_error] with the 1-based line number
   of the offending line — the clean-error contract behind `revkb sat`. *)
let test_dimacs_parse_errors () =
  let expect_error name text line msg_part =
    match Satsolver.Dimacs.parse_string text with
    | exception Satsolver.Dimacs.Parse_error { line = l; msg } ->
        Helpers.check_int (name ^ ": line") line l;
        Helpers.check_bool
          (Printf.sprintf "%s: message %S mentions %S" name msg msg_part)
          true
          (Helpers.contains_substring msg msg_part)
    | _ -> Alcotest.failf "%s: expected Parse_error" name
  in
  expect_error "bad token" "p cnf 2 1\n1 x 0\n" 2 "bad token";
  expect_error "bad header arity" "p cnf 2\n1 0\n" 1 "bad header";
  expect_error "negative header count" "p cnf -3 1\n1 0\n" 1 "bad header";
  expect_error "token after comments" "c hi\nc there\np cnf 1 1\n\n1 0\nbad 0\n"
    6 "bad token"

let test_dimacs_roundtrip () =
  let st = Random.State.make [| 3 |] in
  for _ = 1 to 50 do
    let nv = 1 + Random.State.int st 6 in
    let clauses =
      List.filter (fun c -> c <> []) (random_clauses st nv 10)
    in
    let text =
      Format.asprintf "%a" Satsolver.Dimacs.print (nv, clauses)
    in
    let _, clauses' = Satsolver.Dimacs.parse_string text in
    Alcotest.(check int) "clause count survives" (List.length clauses)
      (List.length clauses');
    Helpers.check_bool "same satisfiability"
      (brute_force_sat nv clauses)
      (brute_force_sat nv clauses')
  done

let () =
  Alcotest.run "satsolver"
    [
      ( "lit",
        [
          Alcotest.test_case "roundtrip" `Quick test_lit_roundtrip;
          Alcotest.test_case "zero rejected" `Quick test_lit_zero;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basic ops" `Quick test_vec_basic;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "fold/to_list" `Quick test_vec_fold;
        ] );
      ( "heap",
        [
          Alcotest.test_case "max order" `Quick test_heap_order;
          Alcotest.test_case "update" `Quick test_heap_update;
          Alcotest.test_case "no duplicates" `Quick test_heap_no_duplicates;
        ] );
      ( "solver",
        [
          Alcotest.test_case "random cross-check" `Quick
            test_random_cross_check;
          Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
          Alcotest.test_case "search trace pinned" `Quick test_search_pinned;
          Alcotest.test_case "empty and unit" `Quick test_empty_and_unit;
          Alcotest.test_case "tautology dropped" `Quick
            test_tautological_clause_dropped;
          Alcotest.test_case "add_clause simplification = list reference"
            `Quick test_simplify_matches_list_reference;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "conflicting assumptions" `Quick
            test_assumptions_conflicting;
          Alcotest.test_case "incremental blocking" `Quick
            test_incremental_blocking;
          Alcotest.test_case "hard random 3-CNF" `Slow test_random_3cnf_hard;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "solve twice" `Quick test_solve_twice_consistent;
          Alcotest.test_case "learnt pressure" `Quick
            test_learnt_clause_pressure;
          Alcotest.test_case "ensure_nvars" `Quick
            test_ensure_nvars_idempotent;
          Alcotest.test_case "statistics" `Quick test_statistics_monotone;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "parse" `Quick test_dimacs_parse;
          Alcotest.test_case "header var count" `Quick
            test_dimacs_header_vars;
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "parse errors carry line numbers" `Quick
            test_dimacs_parse_errors;
        ] );
    ]
