(* The serve tier: protocol JSON, the LRU revision cache, the named-KB
   registry with epochs, and the request loop's semantics — epoch
   invalidation, zero-work cache hits, batch = sequential at jobs 1 and
   4 with fewer solver builds, and structured errors for bad input. *)

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
      [ "sat.solves"; "sem.env.builds"; "sem.encode.clauses";
        "check.cegar_iters" ]
      (fun () -> List.init 40 (fun i -> get_bool "cached" (revise (i mod 2))))
  in
  check_bool "40 hits" true (List.for_all Fun.id cached);
  check_bool "hits do no solver work" true (work = [ 0; 0; 0; 0 ])

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
   engine raises; the decision is taken once.  Reloading the name with
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
              t_detail;
            refused (op ^ " check")
              (Printf.sprintf
                 {|{"verb":"check","kb":"k","op":"%s","p":"c","models":["c"]}|}
                 op)
              (if measured then "Measure: T is unsatisfiable"
               else "Compact.Check: T unsatisfiable"))
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
  (* The grouped answers equal one-at-a-time model checks. *)
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
  check_bool "grouped counter moved" true
    (Obs.value (Obs.counter "serve.batch.groups") > 0);
  (* One 24-member Dalal batch hoists the k_{T,P} / session setup out of
     the per-candidate loop: fewer solver builds and encoded clauses
     than 24 separate checks, at either job count. *)
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
    deltas [ "sem.env.builds"; "sem.encode.clauses" ] (fun () -> f srv)
  in
  List.iter
    (fun jobs ->
      Pool.with_jobs jobs (fun () ->
          let single, one_by_one =
            on_fresh_server (fun srv ->
                List.concat_map (fun m -> results_of (send srv m)) members)
          in
          let grouped, batched =
            on_fresh_server (fun srv ->
                sendf srv {|{"verb":"batch","requests":[%s]}|}
                  (String.concat "," members)
                |> Json.list_member "responses" |> Option.get
                |> List.concat_map results_of)
          in
          let show l = String.concat "/" (List.map string_of_int l) in
          check_bool (Printf.sprintf "jobs=%d: batch answers" jobs) true
            (grouped = single);
          check_bool
            (Printf.sprintf "jobs=%d: builds/clauses %s < %s" jobs
               (show batched) (show one_by_one))
            true
            (List.for_all2 ( < ) batched one_by_one)))
    [ 1; 4 ]

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

(* A grouped check member that fails rolls its group back to one-by-one
   handling; the error reply it then gets is counted once, exactly as
   when the members never group. *)
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
  check_int "grouped members" 1
    (errors_after
       (ok_member ^ {|,{"verb":"check","kb":"k","op":"dalal","p":"~a"}|}));
  check_int "ungrouped members" 1
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
        ] );
      ( "registry",
        [ Alcotest.test_case "lifecycle" `Quick test_registry_lifecycle ] );
      ( "cache",
        [
          Alcotest.test_case "epoch invalidation" `Quick
            test_epoch_invalidation;
          Alcotest.test_case "cached = recomputed" `Quick
            test_cached_equals_recomputed;
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
    ]
