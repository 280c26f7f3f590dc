(* serve-warm: compile once, query many.  Five KBs: three of 20 letters
   compiled to ROBDDs, and one each of 23 and 26 letters answered from
   pooled sessions.  A working set of (operator, P) pairs -- four per
   operator per KB, 120 in all, well inside the 256-entry LRU -- is
   primed into the revision cache during set-up.  The stream mixes
   cached [revise], [query] with op+P on the cached revision's session,
   raw [query] on the pooled session or the diagram, [count] on the
   diagram, and [batch]es of those.  JSON, the parser, the LRU, session
   reuse and the BDD do the work; no revision is constructed once
   set-up is over. *)

module MB = Revision.Model_based
open Inputs

let compiled = [ "w20a"; "w20b"; "w20c" ]
let kbs = List.map (fun kb -> (kb, 20)) compiled @ [ ("w23", 23); ("w26", 26) ]
let pairs_per_op = 4
let queries_per_pair = 8
let raw_queries_per_kb = 32
let pass_length = 4000

(* The mix, in percent: 3 [batch]es of [batch_size] lookups, 47 cached
   [revise], 25 op+P [query], 20 raw [query], 5 [count].  Cached
   [revise] costs about the same on every KB and every seed, and it
   holds the median, so p50 does not sit on the edge between two kinds
   of request; [count] costs follow the diagram size of random KBs and
   are kept few. *)
let batch_share = 3
let batch_size = 8

type request =
  | Revise of string * MB.op * string
  | Query_revised of string * MB.op * string * string
  | Query of string * string
  | Count of string
  | Batch of request list

let rec value = function
  | Revise (kb, op, p) -> O [ ("verb", S "revise"); ("kb", S kb); ("op", S (MB.name op)); ("p", S p) ]
  | Query_revised (kb, op, p, q) ->
      O [ ("verb", S "query"); ("kb", S kb); ("op", S (MB.name op)); ("p", S p); ("q", S q) ]
  | Query (kb, q) -> O [ ("verb", S "query"); ("kb", S kb); ("q", S q) ]
  | Count kb -> O [ ("verb", S "count"); ("kb", S kb) ]
  | Batch members -> O [ ("verb", S "batch"); ("requests", L (List.map value members)) ]

let line r = render (value r)

let make rng =
  let theories =
    List.map
      (fun (kb, n) ->
        let ratio = if List.mem kb compiled then 4 else 3 in
        (kb, cnf_text ~sep:"; " "v" (planted_clauses rng n (ratio * n))))
      kbs
  in
  (* Pair [i] of an operator has shape [i]: fixed shapes, because the
     size of a compact revision grows with |V(P)|. *)
  let pairs =
    Array.of_list
      (List.concat_map
         (fun (kb, n) ->
           List.concat_map
             (fun op ->
               List.init pairs_per_op (fun i ->
                   let p = revising rng "v" n i in
                   (kb, op, p.text, Array.init queries_per_pair (fun _ -> query rng "v" n))))
             MB.all)
         kbs)
  in
  let raw =
    Array.of_list
      (List.map (fun (kb, n) -> (kb, Array.init raw_queries_per_kb (fun _ -> query rng "v" n))) kbs)
  in
  let compiled_a = Array.of_list compiled in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let rec draw ~member =
    let roll =
      if member then batch_share + Random.State.int rng (100 - batch_share)
      else Random.State.int rng 100
    in
    if roll < batch_share then Batch (List.init batch_size (fun _ -> draw ~member:true))
    else if roll < 50 then
      let kb, op, p, _ = pick pairs in
      Revise (kb, op, p)
    else if roll < 75 then
      let kb, op, p, qs = pick pairs in
      Query_revised (kb, op, p, pick qs)
    else if roll < 95 then
      let kb, qs = pick raw in
      Query (kb, pick qs)
    else Count (pick compiled_a)
  in
  let lines = Array.init pass_length (fun _ -> line (draw ~member:false)) in
  let setup_lines =
    List.map (fun (kb, theory) -> render (O [ ("verb", S "load"); ("kb", S kb); ("theory", S theory) ])) theories
    @ List.map (fun kb -> render (O [ ("verb", S "compile"); ("kb", S kb) ])) compiled
    @ List.concat_map
        (fun (kb, op, p, qs) -> [ line (Revise (kb, op, p)); line (Query_revised (kb, op, p, qs.(0))) ])
        (Array.to_list pairs)
    @ List.map (fun (kb, qs) -> line (Query (kb, qs.(0)))) (Array.to_list raw)
  in
  Serve_common.make
    {
      name = "serve-warm";
      passes_per_10s = 22;
      setups_per_pass = 1;
      setup_lines;
      lines;
      verify = Serve_common.reference ~setup_lines ~lines;
    }
