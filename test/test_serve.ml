(* The serve tier: protocol JSON, the LRU revision cache, the named-KB
   registry with epochs, and the request loop's semantics — epoch
   invalidation, zero-work cache hits, one solver per (KB, op, P)
   whichever verbs and batches reach it, batch = sequential at jobs 1
   and 4, and structured errors for bad input. *)

open Logic
module Obs = Revkb_obs.Obs
module Pool = Revkb_parallel.Pool
module Json = Revkb_serve.Json
module Lru = Revkb_serve.Lru
module Registry = Revkb_serve.Registry
module Server = Revkb_serve.Server

let check_bool = Helpers.check_bool
let check_int = Helpers.check_int
let check_str name expected actual =
  Alcotest.(check string) name expected actual

(* -- json -------------------------------------------------------------------- *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "false";
      "42";
      "-7";
      "[]";
      "{}";
      {|"hello"|};
      {|{"a":1,"b":[true,null,"x"],"c":{"d":-2}}|};
      {|["nested",[1,2,[3]]]|};
    ]
  in
  List.iter
    (fun s -> check_str "parse/render fixpoint" s (Json.render (Json.parse s)))
    cases;
  (* Escapes decode and re-encode canonically. *)
  check_str "escapes" {|"a\"b\\c\nd"|}
    (Json.render (Json.parse {|"a\"b\\c\nd"|}));
  check_str "unicode escape" "\"\xc3\xa9\""
    (Json.render (Json.parse {|"é"|}));
  check_str "whitespace tolerated" {|{"k":[1,2]}|}
    (Json.render (Json.parse " { \"k\" : [ 1 , 2 ] } "))

let test_json_accessors () =
  let v = Json.parse {|{"id":7,"verb":"query","deep":{"x":true},"l":[1]}|} in
  check_bool "member" true (Json.member "deep" v <> None);
  check_bool "absent member" true (Json.member "nope" v = None);
  check_int "int_member" 7 (Option.get (Json.int_member "id" v));
  check_str "str_member" "query" (Option.get (Json.str_member "verb" v));
  check_bool "bool_member nested" true
    (Option.get (Json.bool_member "x" (Option.get (Json.member "deep" v))));
  check_int "list_member" 1
    (List.length (Option.get (Json.list_member "l" v)))

let test_json_errors () =
  let bad s =
    match Json.parse s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  List.iter
    (fun s -> check_bool ("rejects " ^ s) true (bad s))
    [
      "";
      "{";
      "[1,";
      {|{"a"}|};
      {|"unterminated|};
      "tru";
      "1 2";
      {|{"a":1,}|};
      "nan";
    ]

(* -- lru --------------------------------------------------------------------- *)

let test_lru_basic () =
  let evicted = ref [] in
  let c = Lru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) 2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  check_int "length" 2 (Lru.length c);
  (* Touch "a" so "b" is the LRU victim. *)
  check_int "find refreshes" 1 (Option.get (Lru.find c "a"));
  Lru.add c "c" 3;
  check_bool "b evicted" true (!evicted = [ "b" ]);
  check_bool "a kept" true (Lru.find c "a" <> None);
  check_bool "c kept" true (Lru.find c "c" <> None);
  check_bool "find miss" true (Lru.find c "b" = None)

let test_lru_churn () =
  (* Many touches of few keys: the stamp queue must compact and the
     recency order must stay exact. *)
  let c = Lru.create 3 in
  for i = 0 to 999 do
    Lru.add c (string_of_int (i mod 3)) i;
    ignore (Lru.find c (string_of_int (i mod 2)))
  done;
  check_int "bounded" 3 (Lru.length c);
  (* Touch "0", then displace two slots: the two untouched survivors
     of the loop go, the freshly touched key stays. *)
  ignore (Lru.find c "0");
  Lru.add c "x" 0;
  Lru.add c "y" 0;
  check_bool "recency respected" true (Lru.find c "0" <> None)

(* [remove_if] drops what the predicate holds of, fires no eviction,
   and the survivors keep their recency order. *)
let test_lru_remove_if () =
  let evicted = ref 0 in
  let c = Lru.create ~on_evict:(fun _ _ -> incr evicted) 3 in
  List.iter (fun k -> Lru.add c k (String.length k)) [ "a"; "bb"; "cc" ];
  Lru.remove_if c (fun _ v -> v = 2);
  check_int "one left" 1 (Lru.length c);
  check_int "no eviction" 0 !evicted;
  Lru.add c "dd" 2;
  Lru.add c "e" 1;
  Lru.add c "f" 1;
  check_bool "oldest survivor evicted first" true (Lru.find c "a" = None);
  check_int "then full" 3 (Lru.length c)

(* -- helpers over the server ------------------------------------------------- *)

(* Drive the Json-level entry point directly: a parse/render
   round-trip per request also exercises [Server.handle]. *)
let send srv line = Server.handle srv (Json.parse line)

let sendf srv fmt = Printf.ksprintf (send srv) fmt

let is_ok v = Json.bool_member "ok" v = Some true

let get_int field v = Option.get (Json.int_member field v)

let get_bool field v = Option.get (Json.bool_member field v)

let error_code v = Option.get (Json.str_member "error" v)

(* Counter deltas across [f ()]; counters record whether or not Obs is on. *)
let deltas names f =
  let before = List.map (fun c -> Obs.value (Obs.counter c)) names in
  let r = f () in
  (r, List.map2 (fun c b -> Obs.value (Obs.counter c) - b) names before)

(* A 26-clause KB "w": clause i is v(i+1) | ~v(7i+4) | v(11i+6), so
   all-true satisfies it. *)
let kb26_load =
  let clause i =
    Printf.sprintf "v%d | ~v%d | v%d" (i + 1) ((7 * i) + 4) ((11 * i) + 6)
  in
  Printf.sprintf {|{"verb":"load","kb":"w","theory":"%s"}|}
    (String.concat "; " (List.init 26 clause))

let kb26_p i = Printf.sprintf "~v%d & ~v%d" (i + 1) (i + 2)

(* -- registry ---------------------------------------------------------------- *)

let test_registry_lifecycle () =
  let srv = Server.create () in
  let r =
    send srv {|{"verb":"load","kb":"k","theory":"a; a -> b"}|}
  in
  check_bool "load ok" true (is_ok r);
  check_int "fresh epoch" 0 (get_int "epoch" r);
  check_int "letters" 2 (get_int "letters" r);
  let reg = Server.registry srv in
  check_int "one name" 1 (Registry.size reg);
  let e = Option.get (Registry.find reg "k") in
  let s1 = Registry.session e in
  let s2 = Registry.session e in
  check_bool "session pooled" true (s1 == s2);
  (* Reload of the same name is an update: epoch bumps, session drops. *)
  let r2 = send srv {|{"verb":"load","kb":"k","theory":"a & ~b"}|} in
  check_int "reload bumps epoch" 1 (get_int "epoch" r2);
  check_bool "session invalidated" true (e.Registry.session = None);
  check_bool "compiled starts empty" true (Registry.compiled e = None)

(* -- epoch invalidation and cache counters ----------------------------------- *)

let test_epoch_invalidation () =
  let srv = Server.create () in
  let hits = Obs.counter "serve.cache.hits" in
  let misses = Obs.counter "serve.cache.misses" in
  let h0 = Obs.value hits and m0 = Obs.value misses in
  ignore (send srv {|{"verb":"load","kb":"k","theory":"a & b & c"}|});
  let r1 = send srv {|{"verb":"revise","kb":"k","op":"dalal","p":"~a | ~b"}|} in
  check_bool "first revise is a miss" true (not (get_bool "cached" r1));
  let r2 = send srv {|{"verb":"revise","kb":"k","op":"dalal","p":"~a | ~b"}|} in
  check_bool "identical revise hits" true (get_bool "cached" r2);
  check_int "same size from cache" (get_int "size" r1) (get_int "size" r2);
  check_int "hit counter" (h0 + 1) (Obs.value hits);
  check_int "miss counter" (m0 + 1) (Obs.value misses);
  (* Entailment through the cached revision: a & b & c * (~a | ~b)
     keeps c (Dalal distance 1).  Note "~a | ~b" vs "~a|~b": the key
     normalizes the parsed formula, so spelling differences hit. *)
  let q =
    send srv {|{"verb":"query","kb":"k","op":"dalal","p":"~a|~b","q":"c"}|}
  in
  check_bool "revised entailment" true (get_bool "entails" q);
  check_bool "query hit the revision cache" true (get_bool "cached" q);
  check_int "hit counter after query" (h0 + 2) (Obs.value hits);
  (* A different P of the same KB misses. *)
  let r3 = send srv {|{"verb":"revise","kb":"k","op":"dalal","p":"~c"}|} in
  check_bool "different P misses" true (not (get_bool "cached" r3));
  (* update bumps the epoch: the SAME request must now miss. *)
  let u = send srv {|{"verb":"update","kb":"k","op":"dalal","p":"~c"}|} in
  check_bool "update reuses the cached revision" true (get_bool "cached" u);
  check_int "update bumps epoch" 1 (get_int "epoch" u);
  let r4 = send srv {|{"verb":"revise","kb":"k","op":"dalal","p":"~a | ~b"}|} in
  check_bool "cache misses after epoch bump" true (not (get_bool "cached" r4));
  (* A hit answers from the cache alone: no solve, no solver build, no
     clause encoded, no CEGAR round — over 40 alternating hits. *)
  ignore (send srv kb26_load);
  let revise i =
    sendf srv {|{"verb":"revise","kb":"w","op":"dalal","p":"%s"}|} (kb26_p i)
  in
  List.iter (fun i -> ignore (revise i)) [ 0; 1 ];
  let cached, work =
    deltas
      [ "sat.solves"; "sem.env.builds"; "sem.env.copies";
        "sem.encode.clauses"; "check.cegar_iters" ]
      (fun () -> List.init 40 (fun i -> get_bool "cached" (revise (i mod 2))))
  in
  check_bool "40 hits" true (List.for_all Fun.id cached);
  check_bool "hits do no solver work" true (work = [ 0; 0; 0; 0; 0 ])

(* -- pooled sessions and the bdd route --------------------------------------- *)

let test_query_routes () =
  let srv = Server.create () in
  let builds = Obs.counter "serve.session.builds" in
  let reuse = Obs.counter "serve.session.reuse" in
  let b0 = Obs.value builds in
  ignore (send srv {|{"verb":"load","kb":"k","theory":"a; a -> b"}|});
  let q1 = send srv {|{"verb":"query","kb":"k","q":"b"}|} in
  check_bool "entails" true (get_bool "entails" q1);
  check_str "session route" "session"
    (Option.get (Json.str_member "route" q1));
  check_int "one session built" (b0 + 1) (Obs.value builds);
  let r0 = Obs.value reuse in
  let q2 = send srv {|{"verb":"query","kb":"k","q":"a & b"}|} in
  check_bool "entails 2" true (get_bool "entails" q2);
  check_int "session reused" (r0 + 1) (Obs.value reuse);
  check_int "no second build" (b0 + 1) (Obs.value builds);
  (* Compile flips the route; answers agree. *)
  let c = send srv {|{"verb":"compile","kb":"k"}|} in
  check_bool "compile ok" true (is_ok c);
  let q3 = send srv {|{"verb":"query","kb":"k","q":"b"}|} in
  check_str "bdd route" "bdd" (Option.get (Json.str_member "route" q3));
  check_bool "bdd agrees" true (get_bool "entails" q3);
  let n = send srv {|{"verb":"count","kb":"k"}|} in
  check_int "count via bdd" 1 (get_int "models" n);
  check_str "count route" "bdd" (Option.get (Json.str_member "route" n))

let test_count_session_route () =
  let srv = Server.create () in
  ignore (send srv {|{"verb":"load","kb":"k","theory":"a | b"}|});
  let n = send srv {|{"verb":"count","kb":"k"}|} in
  check_int "count via session" 3 (get_int "models" n);
  check_str "route" "session" (Option.get (Json.str_member "route" n))

(* The pooled session asserts T once; a count on it adds only its
   blocking walk (one clause per model, one to retire the walk's
   scope), never a second encoding of T. *)
let test_count_reuses_assertion () =
  let srv = Server.create () in
  ignore
    (send srv
       {|{"verb":"load","kb":"k","theory":"a | b | ~c; ~a | c; b | c | d"}|});
  ignore (send srv {|{"verb":"query","kb":"k","q":"b | c"}|});
  let n, clauses =
    deltas [ "sem.encode.clauses" ] (fun () ->
        get_int "models" (send srv {|{"verb":"count","kb":"k"}|}))
  in
  check_int "models" 9 n;
  check_bool
    (Printf.sprintf "count adds %d clauses = %d models + 1" (List.hd clauses) n)
    true
    (clauses = [ n + 1 ])

(* The registry's handle decides T once per epoch: k cold Winslett
   revisions ask it once, and a new epoch asks again. *)
let test_one_decision_per_epoch () =
  let srv = Server.create () in
  ignore
    (send srv
       {|{"verb":"load","kb":"k","theory":"(a & b) | (c & d); e | ~a"}|});
  let revise p =
    sendf srv {|{"verb":"revise","kb":"k","op":"winslett","p":"%s"}|} p
  in
  let ps = [ "~a"; "~b"; "~c | ~d"; "~e"; "a & ~b" ] in
  let cold, decisions =
    deltas [ "sem.kb.decisions" ] (fun () ->
        List.map (fun p -> not (get_bool "cached" (revise p))) ps)
  in
  check_bool "every revision cold" true (List.for_all Fun.id cold);
  check_bool "T decided once for 5 revisions" true (decisions = [ 1 ]);
  ignore (send srv {|{"verb":"update","kb":"k","op":"winslett","p":"~a"}|});
  let _, decisions = deltas [ "sem.kb.decisions" ] (fun () -> revise "~b") in
  check_bool "a new epoch decides again" true (decisions = [ 1 ])

(* An unsatisfiable KB is refused by every revising verb, under the
   measuring and the non-measuring operators alike, with the detail the
   engine raises (the measure's for [query] and [check], which ask the
   entry's measure under all six operators; the construction's for a
   Winslett [revise], which builds no measure); the decision is taken
   once.  Reloading the name with
   a satisfiable theory starts a new epoch that answers, and [update]
   then [query] sees the updated KB. *)
let test_unsat_kb_epochs () =
  let srv = Server.create () in
  let load theory =
    sendf srv {|{"verb":"load","kb":"k","theory":"%s"}|} theory
  in
  ignore (load "a | b; ~a; ~b");
  let detail v = Option.get (Json.str_member "detail" v) in
  let refused what line expected =
    let v = send srv line in
    check_str (what ^ ": code") "invalid" (error_code v);
    check_str (what ^ ": detail") expected (detail v)
  in
  let _, decisions =
    deltas [ "sem.kb.decisions" ] (fun () ->
        List.iter
          (fun (op, measured) ->
            let t_detail =
              if measured then "Measure: T is unsatisfiable"
              else "Construct: T unsatisfiable"
            in
            refused (op ^ " revise")
              (Printf.sprintf
                 {|{"verb":"revise","kb":"k","op":"%s","p":"c"}|} op)
              t_detail;
            refused (op ^ " query")
              (Printf.sprintf
                 {|{"verb":"query","kb":"k","op":"%s","p":"c","q":"c"}|} op)
              "Measure: T is unsatisfiable";
            refused (op ^ " check")
              (Printf.sprintf
                 {|{"verb":"check","kb":"k","op":"%s","p":"c","models":["c"]}|}
                 op)
              "Measure: T is unsatisfiable")
          [ ("winslett", false); ("dalal", true) ])
  in
  check_bool "one decision for six refusals" true (decisions = [ 1 ]);
  check_int "reload bumps the epoch" 1 (get_int "epoch" (load "a & b"));
  let q =
    send srv {|{"verb":"query","kb":"k","op":"dalal","p":"~a","q":"b & ~a"}|}
  in
  check_bool "new epoch answers" true (get_bool "entails" q);
  let w =
    send srv
      {|{"verb":"check","kb":"k","op":"winslett","p":"~a","models":["b","a b"]}|}
  in
  check_bool "new epoch checks" true
    (Json.list_member "results" w = Some [ Json.Bool true; Json.Bool false ]);
  let u = send srv {|{"verb":"update","kb":"k","op":"dalal","p":"~a"}|} in
  check_int "update bumps the epoch" 2 (get_int "epoch" u);
  check_bool "query sees the update" true
    (get_bool "entails" (send srv {|{"verb":"query","kb":"k","q":"~a & b"}|}))

(* A letter outside V(T) ∪ V(P) is free in an op+P query, whichever
   route answers it, even when a construction or the measure makes up
   a letter of that name: Dalal's step copies a to a', Weber's to a_z,
   Winslett's to a_wy, Forbus's to a_fy (Borgida's, here Winslett's,
   to a_wy), the measure to a_m; zz is nobody's.  The revision of
   a & b by ~a is ~a & b under each operator, so neither a letter nor
   its negation is entailed. *)
let test_made_up_letters_free () =
  let srv = Server.create () in
  ignore (send srv {|{"verb":"load","kb":"k","theory":"a & b"}|});
  let entails op q =
    get_bool "entails"
      (sendf srv {|{"verb":"query","kb":"k","op":"%s","p":"~a","q":"%s"}|}
         op q)
  in
  List.iter
    (fun (op, x) ->
      check_bool (Printf.sprintf "%s: %s is free" op x) false (entails op x);
      check_bool (Printf.sprintf "%s: ~%s is free" op x) false
        (entails op ("~" ^ x)))
    [
      ("dalal", "a'");
      ("weber", "a_z");
      ("dalal", "zz");
      ("dalal", "a_m");
      ("satoh", "a_m");
      ("winslett", "a_wy");
      ("winslett", "zz");
      ("winslett", "a_m");
      ("forbus", "a_fy");
      ("forbus", "a_m");
      ("forbus", "zz");
      ("borgida", "a_wy");
      ("borgida", "a_m");
    ];
  List.iter
    (fun op -> check_bool (op ^ ": ~a & b") true (entails op "~a & b"))
    [ "dalal"; "weber"; "satoh"; "winslett"; "forbus"; "borgida" ]

(* A cold op+P query, under each of the six operators, is answered on
   the one measure its cache entry owns: one copy of the KB's loaded
   solver, and no compact formula constructed (no [serve.revise]
   span).  The epoch's first such query builds that loaded solver,
   the only build: T is encoded once per epoch.  A later [check] of
   the same P asks that measure with no solver of its own, and a later
   [revise] constructs once: Dalal, Weber and Satoh from the measure,
   Winslett and Forbus with no solver, Borgida with the one solver of
   its own T ∧ P decision.  A cold Winslett or Forbus [revise] of
   another P neither builds nor copies a solver: it forces no
   measure. *)
let test_cold_query_on_measure () =
  let enabled = Obs.enabled () in
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled enabled)
    (fun () ->
      Obs.set_enabled true;
      let constructions () =
        match List.assoc_opt "serve.revise" (Obs.snapshot ()).spans with
        | Some s -> s.Obs.s_count
        | None -> 0
      in
      let theory = "(a | b | ~c) & (~a | c | d) & (b | ~d)" in
      let srv = Server.create () in
      ignore
        (sendf srv {|{"verb":"load","kb":"k","theory":"%s"}|} theory);
      List.iteri
        (fun i op ->
          let c0 = constructions () in
          let v, work =
            deltas [ "sem.env.builds"; "sem.env.copies" ] (fun () ->
                sendf srv
                  {|{"verb":"query","kb":"k","op":"%s","p":"~b | ~c","q":"a | d"}|}
                  op)
          in
          check_bool (op ^ ": cold") false (get_bool "cached" v);
          check_bool (op ^ ": one copy, T built once per epoch") true
            (work = [ (if i = 0 then 1 else 0); 1 ]);
          check_int (op ^ ": no construction") c0 (constructions ());
          let models = [ [ "a"; "b"; "c"; "d" ]; [ "b" ]; [ "a"; "d" ]; [] ] in
          let c, builds =
            deltas [ "sem.env.builds" ] (fun () ->
                sendf srv
                  {|{"verb":"check","kb":"k","op":"%s","p":"~b | ~c","models":[%s]}|}
                  op
                  (String.concat ","
                     (List.map
                        (fun m -> Printf.sprintf "%S" (String.concat " " m))
                        models)))
          in
          check_bool (op ^ ": check on the measure") true (builds = [ 0 ]);
          let mop = Option.get (Revision.Model_based.of_name op) in
          let t = Parser.formula_of_string theory
          and p = Parser.formula_of_string "~b | ~c" in
          check_bool (op ^ ": check answers") true
            (Json.list_member "results" c
            = Some
                (List.map
                   (fun m ->
                     Json.Bool
                       (Compact.Check.model_check mop t p
                          (Interp.of_list (List.map Var.named m))))
                   models));
          let r, builds =
            deltas [ "sem.env.builds" ] (fun () ->
                sendf srv {|{"verb":"revise","kb":"k","op":"%s","p":"~b | ~c"}|}
                  op)
          in
          check_bool (op ^ ": revise hits") true (get_bool "cached" r);
          check_bool (op ^ ": solvers for the formula") true
            (builds = [ (if op = "borgida" then 1 else 0) ]);
          check_int (op ^ ": one construction") (c0 + 1) (constructions ());
          if op = "winslett" || op = "forbus" then begin
            let r, builds =
              deltas [ "sem.env.builds"; "sem.env.copies" ] (fun () ->
                  sendf srv
                    {|{"verb":"revise","kb":"k","op":"%s","p":"~a | ~d"}|} op)
            in
            check_bool (op ^ ": cold revise") false (get_bool "cached" r);
            check_bool (op ^ ": no measure") true (builds = [ 0; 0 ])
          end)
        [ "dalal"; "weber"; "satoh"; "winslett"; "forbus"; "borgida" ])

(* Every measure starts as a copy of its epoch's loaded solver, never
   of an earlier epoch's: after a [load] over the name, and after an
   [update], the same op+P query answers for the new T, and its
   epoch's first cold query builds that epoch's solver. *)
(* Load k and revise it three times, then reload it: the three entries
   of the old epoch go at once, as the two of an epoch that [update]
   ends do, while another KB's entry stays. *)
let test_stale_epochs_dropped () =
  let srv = Server.create () in
  let entries () = get_int "cache_entries" (send srv {|{"verb":"stats"}|}) in
  ignore (send srv {|{"verb":"load","kb":"k","theory":"a & b & c"}|});
  ignore (send srv {|{"verb":"load","kb":"o","theory":"a"}|});
  ignore (send srv {|{"verb":"revise","kb":"o","op":"dalal","p":"~a"}|});
  List.iter
    (fun p ->
      ignore (sendf srv {|{"verb":"revise","kb":"k","op":"dalal","p":"%s"}|} p))
    [ "~a"; "~b"; "~c" ];
  check_int "four entries" 4 (entries ());
  ignore (send srv {|{"verb":"load","kb":"k","theory":"a & b & c"}|});
  check_int "k's old epoch dropped" 1 (entries ());
  check_bool "a miss in the new epoch" false
    (get_bool "cached"
       (send srv {|{"verb":"revise","kb":"k","op":"dalal","p":"~a"}|}));
  ignore (send srv {|{"verb":"update","kb":"k","op":"dalal","p":"~b"}|});
  check_int "update drops its epoch" 1 (entries ())

let test_no_stale_solver () =
  let query srv =
    let v, builds =
      deltas [ "sem.env.builds" ] (fun () ->
          send srv {|{"verb":"query","kb":"k","op":"dalal","p":"a | c","q":"b"}|})
    in
    check_bool "cold" false (get_bool "cached" v);
    check_bool "the epoch's solver built" true (builds = [ 1 ]);
    get_bool "entails" v
  in
  let expected t =
    Semantics.entails
      (Compact.Construct.revise Revision.Model_based.Dalal
         (Kb.make (Parser.formula_of_string t))
         (Parser.formula_of_string "a | c"))
      (Parser.formula_of_string "b")
  in
  let srv = Server.create () in
  ignore (send srv {|{"verb":"load","kb":"k","theory":"a & b"}|});
  check_bool "T1 * P |= b" (expected "a & b") (query srv);
  ignore (send srv {|{"verb":"load","kb":"k","theory":"~a & ~b"}|});
  check_bool "reloaded: T2 * P |/= b" (expected "~a & ~b") (query srv);
  check_bool "the two answers differ" true
    (expected "a & b" && not (expected "~a & ~b"));
  let srv = Server.create () in
  ignore (send srv {|{"verb":"load","kb":"k","theory":"a & b"}|});
  check_bool "T1 * P |= b" true (query srv);
  ignore
    (send srv {|{"verb":"update","kb":"k","op":"dalal","p":"~a & ~b"}|});
  check_bool "updated: T2 * P |/= b" false (query srv)

(* A raw query's record of models of T is the epoch's: after a reload
   or an update, a model of the old T must not answer for the new one.
   a | b has the model {b}, which falsifies a; a & b entails a. *)
let test_no_stale_record () =
  let raw srv =
    get_bool "entails" (send srv {|{"verb":"query","kb":"k","q":"a"}|})
  in
  List.iter
    (fun change ->
      let srv = Server.create () in
      ignore (send srv {|{"verb":"load","kb":"k","theory":"a | b"}|});
      check_bool "a | b |/= a" false (raw srv);
      ignore (send srv change);
      check_bool (change ^ ": a & b |= a") true (raw srv))
    [
      {|{"verb":"load","kb":"k","theory":"a & b"}|};
      {|{"verb":"update","kb":"k","op":"dalal","p":"a & b"}|};
    ]

(* The second asking of a query that T * P (or T) does not entail is
   answered from the record of models: no solve, one record hit, and
   the same answer on the same route.  a & b revised by ~a | ~b has the
   models {a} and {b} under all six operators, so none entails a. *)
let test_repeated_no_costs_no_solve () =
  let srv = Server.create () in
  ignore (send srv {|{"verb":"load","kb":"k","theory":"a & b"}|});
  ignore (send srv {|{"verb":"load","kb":"r","theory":"a | b"}|});
  let counters = [ "sat.solves"; "sem.record.hits"; "sem.record.adds" ] in
  let twice what line =
    let first, d1 = deltas counters (fun () -> send srv line) in
    let second, d2 = deltas counters (fun () -> send srv line) in
    check_bool (what ^ ": not entailed") false (get_bool "entails" first);
    check_bool (what ^ ": same answer and route") true
      (List.for_all
         (fun f -> Json.member f first = Json.member f second)
         [ "entails"; "route" ]);
    check_bool (what ^ ": first solves, records one model") true
      (List.hd d1 > 0 && List.tl d1 = [ 0; 1 ]);
    check_bool (what ^ ": second is one hit, no solve") true (d2 = [ 0; 1; 0 ])
  in
  List.iter
    (fun op ->
      let name = Revision.Model_based.name op in
      twice name
        (Printf.sprintf
           {|{"verb":"query","kb":"k","op":"%s","p":"~a | ~b","q":"a"}|} name))
    Revision.Model_based.all;
  twice "session" {|{"verb":"query","kb":"r","q":"a"}|}

(* [Registry.entails] answers as [Semantics.entails] over up to 80
   queries on one epoch, its record running past its capacity.  T is
   one or two two-literal clauses over x1..x8; x9 is outside V(T).  The
   stream asks the negated minterms over x1..x8 of 66 models of T, each
   falsified by its own model alone: the record reads the letters
   outside V(T) false, so each minterm making one of them true adds a
   model, and the record wraps.  T's clauses (entailed) follow the 30th
   and the last; random queries over x1..x9 close the stream. *)
let prop_registry_entails_matches_semantics =
  let x = Helpers.letters 9 in
  let x8 = List.filteri (fun i _ -> i < 8) x in
  let gen st =
    let lit () =
      let v = Formula.var (List.nth x8 (Random.State.int st 8)) in
      if Random.State.bool st then v else Formula.not_ v
    in
    let clause _ = Formula.or_ [ lit (); lit () ] in
    ( List.init (1 + Random.State.int st 2) clause,
      List.init 10 (fun _ -> Gen.formula st ~vars:x ~depth:2) )
  in
  let print (th, _) = String.concat "; " (List.map Formula.to_string th) in
  Helpers.qtest ~count:40
    "Registry.entails = Semantics.entails, past the record's capacity"
    (QCheck.make ~print gen)
    (fun (th, randoms) ->
      let t = Theory.conj th in
      let minterms =
        List.filteri (fun i _ -> i < 66)
          (List.map
             (fun m -> Formula.not_ (Interp.minterm x8 m))
             (Models.enumerate x8 t))
      in
      let early = List.filteri (fun i _ -> i < 30) minterms
      and late = List.filteri (fun i _ -> i >= 30) minterms in
      let e = Registry.load (Registry.create ()) "k" th in
      List.for_all
        (fun q -> Registry.entails e q = Semantics.entails t q)
        (early @ th @ late @ th @ randoms))

(* Winslett, Forbus and Borgida answer [query] and [check] on the
   measure at any width their CEGAR cap allows, while their
   constructions expand 2^|V(P)| and refuse past 8 letters: on a
   10-letter P (a & b revised by ~a & (b1 | ... | b9) is ~a & b with
   at least one b_i, under all three) query and check answer and
   revise is refused. *)
let test_pointwise_wide_p () =
  let srv = Server.create () in
  ignore (send srv {|{"verb":"load","kb":"k","theory":"a & b"}|});
  let p =
    "~a & (" ^ String.concat " | " (List.init 9 (Printf.sprintf "b%d")) ^ ")"
  in
  List.iter
    (fun op ->
      let query q =
        sendf srv {|{"verb":"query","kb":"k","op":"%s","p":"%s","q":"%s"}|}
          op p q
      in
      check_bool (op ^ ": query answers") true
        (get_bool "entails" (query "b & ~a"));
      check_bool (op ^ ": b1 not entailed") false
        (get_bool "entails" (query "b1"));
      let c =
        sendf srv
          {|{"verb":"check","kb":"k","op":"%s","p":"%s","models":["b b3","b b1 b2","b","a b b1"]}|}
          op p
      in
      check_bool (op ^ ": check answers") true
        (Json.list_member "results" c
        = Some (List.map (fun b -> Json.Bool b) [ true; true; false; false ]));
      let r =
        sendf srv {|{"verb":"revise","kb":"k","op":"%s","p":"%s"}|} op p
      in
      check_str (op ^ ": revise refused")
        "Construct: |V(P)| > 8 — not a bounded instance"
        (Option.value ~default:"" (Json.str_member "detail" r)))
    [ "winslett"; "forbus"; "borgida" ]

(* Satoh's construction is bounded by its measure's 16-letter sweep, as
   its query and check are: on a 10-letter P all three verbs answer. *)
let test_satoh_wide_p () =
  let srv = Server.create () in
  ignore (send srv {|{"verb":"load","kb":"k","theory":"a & b"}|});
  let p =
    "~a & (" ^ String.concat " | " (List.init 9 (Printf.sprintf "b%d")) ^ ")"
  in
  let q =
    sendf srv {|{"verb":"query","kb":"k","op":"satoh","p":"%s","q":"b & ~a"}|} p
  in
  check_bool "query answers" true (get_bool "entails" q);
  let c =
    sendf srv
      {|{"verb":"check","kb":"k","op":"satoh","p":"%s","models":["b b3","b b1 b2","a b b1"]}|}
      p
  in
  check_bool "check answers" true
    (Json.list_member "results" c
    = Some [ Json.Bool true; Json.Bool true; Json.Bool false ]);
  let r = sendf srv {|{"verb":"revise","kb":"k","op":"satoh","p":"%s"}|} p in
  check_bool
    ("revise answers: " ^ Json.render r)
    true
    (is_ok r && get_int "size" r > 0)

(* A refused [revise] counts neither a hit nor a miss: after a Winslett
   [query] of a 10-letter P answers (one miss), two Winslett [revise]s
   of it, refused on the cached entry, and one Forbus [revise], refused
   on a new one, leave the counters at 0 hits and 1 miss. *)
let test_refused_revise_uncounted () =
  let srv = Server.create () in
  ignore (send srv {|{"verb":"load","kb":"k","theory":"a & b"}|});
  let p =
    "~a & (" ^ String.concat " | " (List.init 9 (Printf.sprintf "b%d")) ^ ")"
  in
  check_bool "query answers" true
    (is_ok
       (sendf srv
          {|{"verb":"query","kb":"k","op":"winslett","p":"%s","q":"b"}|} p));
  List.iter
    (fun op ->
      let r =
        sendf srv {|{"verb":"revise","kb":"k","op":"%s","p":"%s"}|} op p
      in
      check_bool (op ^ ": revise refused") false (is_ok r))
    [ "winslett"; "winslett"; "forbus" ];
  let v = send srv {|{"verb":"stats"}|} in
  check_int "cache_hits" 0 (get_int "cache_hits" v);
  check_int "cache_misses" 1 (get_int "cache_misses" v);
  check_int "errors" 3 (get_int "errors" v)

(* Reply text depends on the request, not on what the process did
   before: two KBs loaded alike print the same Dalal revision, made-up
   letters and all. *)
let test_identical_kbs_print_alike () =
  let srv = Server.create () in
  let printed kb =
    ignore
      (sendf srv {|{"verb":"load","kb":"%s","theory":"a & b"}|} kb);
    let r =
      sendf srv
        {|{"verb":"revise","kb":"%s","op":"dalal","p":"~a | ~b","print":true}|}
        kb
    in
    Option.get (Json.str_member "formula" r)
  in
  let first = printed "k1" in
  check_str "second KB prints alike" first (printed "k2");
  check_bool "made-up letters printed" true
    (String.length first > 0
    && Var.Set.mem (Var.named "_exa0")
         (Formula.vars (Parser.formula_of_string first)))

(* -- batch semantics ---------------------------------------------------------- *)

let batch_line =
  {|{"verb":"batch","requests":[
      {"id":"c1","verb":"check","kb":"k","op":"dalal","p":"~a | ~b","models":["c","a c","a b c",""]},
      {"id":"q1","verb":"query","kb":"k","q":"a"},
      {"id":"c2","verb":"check","kb":"k","op":"dalal","p":"~a | ~b","models":["b c","a b"]},
      {"id":"s1","verb":"stats"}]}|}
  |> String.split_on_char '\n'
  |> List.map String.trim |> String.concat ""

let run_batch jobs =
  Pool.with_jobs jobs (fun () ->
      let srv = Server.create () in
      ignore (send srv {|{"verb":"load","kb":"k","theory":"a & b & c"}|});
      Server.handle_line srv batch_line)

let test_batch_equality () =
  let r1 = run_batch 1 and r4 = run_batch 4 in
  check_str "batch jobs=1 = jobs=4" r1 r4;
  (* The batched answers equal one-at-a-time model checks. *)
  let v = Json.parse r1 in
  let responses = Option.get (Json.list_member "responses" v) in
  check_int "all answered" 4 (List.length responses);
  let t = Formula.and_ [ Formula.v "a"; Formula.v "b"; Formula.v "c" ] in
  let p =
    Formula.or_ [ Formula.not_ (Formula.v "a"); Formula.not_ (Formula.v "b") ]
  in
  let expect ms =
    List.map
      (fun s ->
        let n =
          Interp.of_list
            (List.filter_map
               (fun w -> if w = "" then None else Some (Var.named w))
               (String.split_on_char ' ' s))
        in
        Compact.Check.model_check Revision.Model_based.Dalal t p n)
      ms
  in
  let results_of r =
    List.map
      (function Json.Bool b -> b | _ -> assert false)
      (Option.get (Json.list_member "results" r))
  in
  let by_id id =
    List.find (fun r -> Json.str_member "id" r = Some id) responses
  in
  check_bool "c1 = pointwise" true
    (results_of (by_id "c1") = expect [ "c"; "a c"; "a b c"; "" ]);
  check_bool "c2 = pointwise" true
    (results_of (by_id "c2") = expect [ "b c"; "a b" ]);
  (* The second check member of one (KB, op, P) is a cache hit on the
     first member's checker: beside a batch of the first member alone,
     it adds one hit and builds no solver and encodes no clause. *)
  let c1 =
    {|{"verb":"check","kb":"k","op":"dalal","p":"~a | ~b","models":["c","a c","a b c",""]}|}
  and c2 =
    {|{"verb":"check","kb":"k","op":"dalal","p":"~a | ~b","models":["b c","a b"]}|}
  in
  let batch_work members =
    let srv = Server.create () in
    ignore (send srv {|{"verb":"load","kb":"k","theory":"a & b & c"}|});
    snd
      (deltas
         [ "serve.cache.hits"; "sem.env.builds"; "sem.encode.clauses" ]
         (fun () ->
           sendf srv {|{"verb":"batch","requests":[%s]}|}
             (String.concat "," members)))
  in
  let show l = String.concat "/" (List.map string_of_int l) in
  let second =
    List.map2 ( - ) (batch_work [ c1; c2 ]) (batch_work [ c1 ])
  in
  check_str "second member: hits/builds/clauses" "1/0/0" (show second);
  (* 24 separate check requests on one (KB, Dalal, P) share its cache
     entry: one solver answers them all, and a batch of the same
     members answers alike. *)
  let member i =
    List.init 26 (fun j -> Printf.sprintf "v%d" (j + 1))
    |> List.filteri (fun j _ -> j * (i + 3) mod 5 < 2)
    |> String.concat " "
    |> Printf.sprintf
         {|{"verb":"check","kb":"w","op":"dalal","p":"%s","models":["%s"]}|}
         (kb26_p 0)
  in
  let members = List.init 24 member in
  let on_fresh_server f =
    let srv = Server.create () in
    ignore (send srv kb26_load);
    deltas [ "sem.env.builds"; "sem.env.copies" ] (fun () -> f srv)
  in
  let single, work =
    on_fresh_server (fun srv ->
        List.concat_map (fun m -> results_of (send srv m)) members)
  in
  check_bool "24 checks build one solver and copy it once" true
    (work = [ 1; 1 ]);
  let batched, _ =
    on_fresh_server (fun srv ->
        sendf srv {|{"verb":"batch","requests":[%s]}|}
          (String.concat "," members)
        |> Json.list_member "responses" |> Option.get
        |> List.concat_map results_of)
  in
  check_bool "batch answers = separate answers" true (batched = single)

let test_batch_rejects_mutators () =
  let srv = Server.create () in
  ignore (send srv {|{"verb":"load","kb":"k","theory":"a"}|});
  let v =
    send srv
      {|{"verb":"batch","requests":[{"id":1,"verb":"load","kb":"x","theory":"a"},{"id":2,"verb":"query","kb":"k","q":"a"}]}|}
  in
  let responses = Option.get (Json.list_member "responses" v) in
  let r1 = List.nth responses 0 and r2 = List.nth responses 1 in
  check_str "load refused in batch" "not_batchable" (error_code r1);
  check_bool "sibling still answered" true (get_bool "entails" r2)

(* -- structured errors -------------------------------------------------------- *)

let test_errors () =
  let srv = Server.create () in
  check_str "malformed json" "bad_json"
    (error_code (Json.parse (Server.handle_line srv "this is not json")));
  check_str "non-object" "bad_request" (error_code (send srv "[1,2]"));
  check_str "no verb" "missing_field" (error_code (send srv "{}"));
  check_str "unknown verb" "unknown_verb"
    (error_code (send srv {|{"verb":"frobnicate"}|}));
  check_str "unknown kb" "unknown_kb"
    (error_code (send srv {|{"verb":"query","kb":"ghost","q":"a"}|}));
  ignore (send srv {|{"verb":"load","kb":"k","theory":"a"}|});
  check_str "unknown op" "unknown_op"
    (error_code (send srv {|{"verb":"revise","kb":"k","op":"gfuv","p":"a"}|}));
  check_str "syntax error" "syntax_error"
    (error_code (send srv {|{"verb":"revise","kb":"k","op":"dalal","p":"(("}|}));
  check_str "unsat P" "invalid"
    (error_code
       (send srv {|{"verb":"revise","kb":"k","op":"dalal","p":"a & ~a"}|}));
  check_str "bad theory" "syntax_error"
    (error_code (send srv {|{"verb":"load","kb":"z","theory":"&&&"}|}));
  (* The error id echo. *)
  let v = send srv {|{"id":99,"verb":"nope"}|} in
  check_int "id echoed on errors" 99 (get_int "id" v);
  (* The daemon survived all of the above. *)
  check_bool "still serving" true
    (is_ok (send srv {|{"verb":"query","kb":"k","q":"a"}|}))

let test_shutdown_verb () =
  let srv = Server.create () in
  check_bool "not stopping" true (not (Server.stopping srv));
  let v = send srv {|{"verb":"shutdown"}|} in
  check_bool "ack" true (is_ok v);
  check_bool "stopping" true (Server.stopping srv)

let test_stats_shape () =
  let srv = Server.create () in
  ignore (send srv {|{"verb":"load","kb":"k","theory":"a"}|});
  ignore (Server.handle_line srv "garbage");
  let v = send srv {|{"verb":"stats"}|} in
  check_int "kbs" 1 (get_int "kbs" v);
  check_int "requests include this one" 3 (get_int "requests" v);
  check_int "errors" 1 (get_int "errors" v);
  check_int "no cache traffic yet" 0 (get_int "cache_hits" v);
  check_int "cache empty" 0 (get_int "cache_entries" v)

(* A failing check member beside a good one gets its own error reply,
   counted once, whether or not the two share (KB, op, P). *)
let test_batch_error_counted_once () =
  let errors_after members =
    let srv = Server.create () in
    ignore (send srv {|{"verb":"load","kb":"k","theory":"a & b"}|});
    let v = sendf srv {|{"verb":"batch","requests":[%s]}|} members in
    let codes =
      List.filter_map
        (fun r -> Json.str_member "error" r)
        (Option.get (Json.list_member "responses" v))
    in
    check_bool "one member error" true (codes = [ "missing_field" ]);
    get_int "errors" (send srv {|{"verb":"stats"}|})
  in
  let ok_member = {|{"verb":"check","kb":"k","op":"dalal","p":"~a","models":["b"]}|} in
  check_int "same pair" 1
    (errors_after
       (ok_member ^ {|,{"verb":"check","kb":"k","op":"dalal","p":"~a"}|}));
  check_int "other pair" 1
    (errors_after
       (ok_member ^ {|,{"verb":"check","kb":"k","op":"weber","p":"~a"}|}))

(* Cached and recomputed answers must be bit-identical: drive the same
   query on a cache-cap-1 server (forced recompute) and a roomy one. *)
let test_cached_equals_recomputed () =
  let roomy = Server.create () in
  let tight = Server.create ~cache_cap:1 () in
  List.iter
    (fun srv ->
      ignore (send srv {|{"verb":"load","kb":"k","theory":"a & b & c"}|}))
    [ roomy; tight ];
  let interleave srv =
    (* Alternate two P's: the tight cache thrashes (every revise is a
       miss after the first pair), the roomy one hits. *)
    List.map
      (fun p ->
        let v =
          sendf srv {|{"verb":"query","kb":"k","op":"dalal","p":"%s","q":"c"}|}
            p
        in
        get_bool "entails" v)
      [ "~a | ~b"; "~c"; "~a | ~b"; "~c"; "~a | ~b" ]
  in
  let a = interleave roomy and b = interleave tight in
  check_bool "cached = recomputed" true (a = b);
  check_bool "tight cache stayed bounded" true
    (get_int "cache_entries" (send tight {|{"verb":"stats"}|}) <= 1)

(* -- line framing ----------------------------------------------------------- *)

(* The replies [Server.serve_fd] writes for the input [write] puts in
   a file.  Each read of a file returns the next 4096 bytes, so the
   input alone sets where its lines fall against the reads. *)
let serve_written write =
  let path_in = Filename.temp_file "revkb_serve" ".in" in
  let path_out = Filename.temp_file "revkb_serve" ".out" in
  Out_channel.with_open_bin path_in write;
  let fd_in = Unix.openfile path_in [ Unix.O_RDONLY ] 0 in
  let fd_out = Unix.openfile path_out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd_in;
      Unix.close fd_out;
      Sys.remove path_in)
    (fun () -> Server.serve_fd (Server.create ()) fd_in fd_out);
  let out = In_channel.with_open_bin path_out In_channel.input_all in
  Sys.remove path_out;
  List.map Json.parse
    (List.filter (fun l -> l <> "") (String.split_on_char '\n' out))

let serve_input input = serve_written (fun oc -> output_string oc input)

let stats_line id = Printf.sprintf {|{"id":%d,"verb":"stats"}|} id

let check_ids name expected replies =
  Alcotest.(check (list (option int)))
    name
    (List.map Option.some expected)
    (List.map (Json.int_member "id") replies)

let test_framing () =
  let first = "{" ^ String.make 4060 ' ' ^ {|"id":1,"verb":"stats"}|} in
  let start2 = String.length first + 1 in
  check_bool "line 2 straddles the first read" true
    (start2 < 4096 && start2 + String.length (stats_line 2) > 4096);
  check_ids "a line split across reads" [ 1; 2 ]
    (serve_input (first ^ "\n" ^ stats_line 2 ^ "\n"));
  check_ids "several lines in one read" [ 1; 2; 3 ]
    (serve_input
       (String.concat "\n" [ stats_line 1; stats_line 2; stats_line 3; "" ]));
  check_ids "a final line without a newline" [ 1; 2 ]
    (serve_input (stats_line 1 ^ "\n" ^ stats_line 2));
  (* The CR goes with the LF: an error offset counts the line without it,
     and a CRLF-only line is blank. *)
  match serve_input (stats_line 1 ^ "\r\n\r\n" ^ {|{"id":2|} ^ "\r\n") with
  | [ r1; r2 ] ->
      check_ids "CRLF" [ 1 ] [ r1 ];
      check_str "CR cut" "expected ',' or '}' at offset 7"
        (Option.get (Json.str_member "detail" r2))
  | rs -> Alcotest.failf "CRLF: %d replies, expected 2" (List.length rs)

(* A line is searched once however many reads it spans: 8 MB in one
   line stays far from the quadratic rescan, which took seconds per
   megabyte. *)
let test_long_line () =
  let long =
    Printf.sprintf {|{"id":1,"verb":"stats","pad":"%s"}|}
      (String.make (8 * 1024 * 1024) 'x')
  in
  let t0 = Unix.gettimeofday () in
  let replies = serve_input (long ^ "\n" ^ stats_line 2 ^ "\n") in
  let dt = Unix.gettimeofday () -. t0 in
  check_ids "both answered" [ 1; 2 ] replies;
  check_bool (Printf.sprintf "8 MB line in %.2f s, budget 5 s" dt) true
    (dt < 5.0)

(* A line past the cap gets one [too_large] reply, and the line after
   it is served: at the cap's boundary, across the thousands of reads
   a line of twice the cap spans, and at end of input.  A line of
   exactly the cap is served.  The input is written piecewise, so the
   test holds no line of that size itself. *)
let test_too_large_line () =
  let cap = Server.max_line_bytes in
  let xs oc n =
    let piece = String.make 65536 'x' in
    let rec go n =
      if n > 0 then begin
        let k = min n (String.length piece) in
        output_substring oc piece 0 k;
        go (n - k)
      end
    in
    go n
  in
  let padded id =
    Printf.sprintf {|{"id":%d,"verb":"stats","pad":"|} id
  in
  let replies =
    serve_written (fun oc ->
        output_string oc (stats_line 1 ^ "\n");
        xs oc (cap + 1);
        output_string oc ("\n" ^ stats_line 2 ^ "\n");
        xs oc (2 * cap);
        output_string oc ("\n" ^ padded 3);
        xs oc (cap - String.length (padded 3) - 2);
        output_string oc ({|"}|} ^ "\n" ^ stats_line 4 ^ "\n");
        xs oc (cap + 1))
  in
  (* Each reply, by its id or, with none, by its error code. *)
  let tag r =
    match Json.int_member "id" r with
    | Some id -> string_of_int id
    | None -> Option.value ~default:"?" (Json.str_member "error" r)
  in
  Alcotest.(check (list string))
    "one reply a line"
    [ "1"; "too_large"; "2"; "too_large"; "3"; "4"; "too_large" ]
    (List.map tag replies)

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "rejects malformed" `Quick test_json_errors;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic order" `Quick test_lru_basic;
          Alcotest.test_case "churn stays bounded" `Quick test_lru_churn;
          Alcotest.test_case "remove_if" `Quick test_lru_remove_if;
        ] );
      ( "registry",
        [ Alcotest.test_case "lifecycle" `Quick test_registry_lifecycle ] );
      ( "cache",
        [
          Alcotest.test_case "epoch invalidation" `Quick
            test_epoch_invalidation;
          Alcotest.test_case "cached = recomputed" `Quick
            test_cached_equals_recomputed;
          Alcotest.test_case "superseded epochs dropped" `Quick
            test_stale_epochs_dropped;
        ] );
      ( "routes",
        [
          Alcotest.test_case "session and bdd" `Quick test_query_routes;
          Alcotest.test_case "count via session" `Quick
            test_count_session_route;
          Alcotest.test_case "count reuses the assertion" `Quick
            test_count_reuses_assertion;
          Alcotest.test_case "one decision per epoch" `Quick
            test_one_decision_per_epoch;
          Alcotest.test_case "unsatisfiable KB across epochs" `Quick
            test_unsat_kb_epochs;
          Alcotest.test_case "made-up letters are free" `Quick
            test_made_up_letters_free;
          Alcotest.test_case "cold query on the measure" `Quick
            test_cold_query_on_measure;
          Alcotest.test_case "no stale solver across epochs" `Quick
            test_no_stale_solver;
          Alcotest.test_case "no stale record across epochs" `Quick
            test_no_stale_record;
          Alcotest.test_case "a repeated non-entailed query costs no solve"
            `Quick test_repeated_no_costs_no_solve;
          prop_registry_entails_matches_semantics;
          Alcotest.test_case "Satoh past 8 letters" `Quick test_satoh_wide_p;
          Alcotest.test_case "refused revise counts no hit" `Quick
            test_refused_revise_uncounted;
          Alcotest.test_case "identical KBs print alike" `Quick
            test_identical_kbs_print_alike;
          Alcotest.test_case "pointwise query past 8 letters" `Quick
            test_pointwise_wide_p;
        ] );
      ( "batch",
        [
          Alcotest.test_case "jobs 1 = jobs 4 = pointwise" `Quick
            test_batch_equality;
          Alcotest.test_case "mutators refused" `Quick
            test_batch_rejects_mutators;
        ] );
      ( "errors",
        [
          Alcotest.test_case "structured" `Quick test_errors;
          Alcotest.test_case "shutdown verb" `Quick test_shutdown_verb;
          Alcotest.test_case "stats shape" `Quick test_stats_shape;
          Alcotest.test_case "batch error counted once" `Quick
            test_batch_error_counted_once;
        ] );
      ( "line reader",
        [
          Alcotest.test_case "framing" `Quick test_framing;
          Alcotest.test_case "8 MB line" `Quick test_long_line;
          Alcotest.test_case "line past the cap" `Quick test_too_large_line;
        ] );
    ]
