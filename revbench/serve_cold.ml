(* serve-cold: writes beside reads.  Every revising formula is fresh,
   drawn from a space far larger than the cache, so [revise] and op+P
   [query] requests miss and construct; [check] and [batch] traffic on
   all six operators runs Compact.Check; [load] and [update] requests
   bump epochs, so pooled sessions are rebuilt.  KBs have 12 letters at
   clause ratio 4, where a CEGAR [check] batch (Winslett, Forbus)
   finishes in milliseconds and the semantic oracle can enumerate.  The
   cost of a check swings several-fold from one random KB to the next,
   so twelve KBs, each with 6 to 10 models, share the traffic. *)

open Logic
module MB = Revision.Model_based
module R = Revision.Result
module Json = Revkb_serve.Json
open Inputs

let letters = 12
let kbs = Array.init 12 (fun i -> Printf.sprintf "c%d" (i + 1))
let journal = "u"
let rounds = 48

type request =
  | Load of string * string
  | Update of string * MB.op * string
  | Revise of string * MB.op * string
  | Query_revised of string * MB.op * string * string
  | Query of string * string
  | Check of string * MB.op * string * string list
  | Batch of request list

(* [revise] asks for the formula, which the oracle checks for query
   equivalence with the semantic revision. *)
let rec value = function
  | Load (kb, theory) -> O [ ("verb", S "load"); ("kb", S kb); ("theory", S theory) ]
  | Update (kb, op, p) -> O [ ("verb", S "update"); ("kb", S kb); ("op", S (MB.name op)); ("p", S p) ]
  | Revise (kb, op, p) ->
      O [ ("verb", S "revise"); ("kb", S kb); ("op", S (MB.name op)); ("p", S p); ("print", B true) ]
  | Query_revised (kb, op, p, q) ->
      O [ ("verb", S "query"); ("kb", S kb); ("op", S (MB.name op)); ("p", S p); ("q", S q) ]
  | Query (kb, q) -> O [ ("verb", S "query"); ("kb", S kb); ("q", S q) ]
  | Check (kb, op, p, models) ->
      O
        [
          ("verb", S "check");
          ("kb", S kb);
          ("op", S (MB.name op));
          ("p", S p);
          ("models", L (List.map (fun m -> S m) models));
        ]
  | Batch members -> O [ ("verb", S "batch"); ("requests", L (List.map value members)) ]

(* What the KB a request names holds when the request arrives: its
   theory, or T * P between an [update] of the journal KB and its next
   reload. *)
type content = Plain of string | Revised of string * MB.op * string

let make rng =
  let kb () = kb_in_band rng "v" letters (4 * letters) ~lo:6 ~hi:10 in
  let theories = Array.map (fun _ -> kb ()) kbs in
  let journal_theory = kb () in
  let ops = Array.of_list MB.all in
  (* Round [r] uses KB r mod |kbs|, and its request slot [j] gets
     operator (r + r / |kbs| + j) mod 6: every slot meets all six
     operators in turn, and each KB meets a slot with a different
     operator on each of its rounds, so no request kind's cost rests on
     one operator or on a few random KBs. *)
  let round_base = ref 0 and slot = ref 0 in
  let op () =
    incr slot;
    ops.((!round_base + !slot) mod Array.length ops)
  in
  let shape = ref 0 in
  let fresh () =
    incr shape;
    revising rng "v" letters !shape
  in
  let candidates p k = List.init k (fun _ -> candidate rng "v" letters p.forced) in
  let q () = query rng "v" letters in
  let pass = ref [] in
  let emit content r = pass := (content, r) :: !pass in
  for round = 0 to rounds - 1 do
    round_base := round + (round / Array.length kbs);
    slot := 0;
    let i = round mod Array.length kbs in
    let kb = kbs.(i) and plain = Plain theories.(i) in
    for _ = 1 to 3 do
      emit plain (Revise (kb, op (), (fresh ()).text))
    done;
    for _ = 1 to 2 do
      emit plain (Query_revised (kb, op (), (fresh ()).text, q ()))
    done;
    emit plain (Query (kb, q ()));
    (let p = fresh () in
     emit plain (Check (kb, op (), p.text, candidates p 4)));
    for _ = 1 to 2 do
      let p = fresh () and o = op () in
      emit plain
        (Batch
           (List.init 2 (fun _ -> Check (kb, o, p.text, candidates p 3))
           @ [ Query_revised (kb, op (), (fresh ()).text, q ()) ]))
    done;
    if round mod 3 = 2 then emit plain (Load (kb, theories.(i)));
    if round mod 2 = 1 then begin
      let p = fresh () and o = op () in
      emit (Plain journal_theory) (Load (journal, journal_theory));
      emit (Plain journal_theory) (Update (journal, o, p.text));
      for _ = 1 to 2 do
        emit (Revised (journal_theory, o, p.text)) (Query (journal, q ()))
      done
    end
  done;
  let pass = Array.of_list (List.rev !pass) in
  (* The oracle: semantic model-based revision by enumeration, a route
     none of the served answers take, and Compact.Verify for printed
     formulas. *)
  let semantic = Hashtbl.create 1024 in
  let revised theory op p =
    let key = (theory, MB.name op, p) in
    match Hashtbl.find_opt semantic key with
    | Some r -> r
    | None ->
        let r = MB.revise op (Theory.conj (Parser.theory_of_string theory)) (Parser.formula_of_string p) in
        Hashtbl.add semantic key r;
        r
  in
  let interp result text =
    Var.Set.inter
      (Var.set_of_list (R.alphabet result))
      (Var.set_of_list
         (List.filter_map
            (fun w -> if w = "" then None else Some (Var.named w))
            (String.split_on_char ' ' text)))
  in
  let theory_of = function Plain t | Revised (t, _, _) -> t in
  let rec correct content request reply =
    Serve_common.answered reply
    &&
    match request with
    | Load _ | Update _ -> true
    | Revise (_, op, p) -> (
        match Json.str_member "formula" reply with
        | None -> false
        | Some text ->
            let f = Parser.formula_of_string text in
            Json.int_member "size" reply = Some (Formula.size f)
            && Compact.Verify.query_equivalent (revised (theory_of content) op p) f)
    | Query_revised (_, op, p, q) ->
        Json.bool_member "entails" reply
        = Some (R.entails (revised (theory_of content) op p) (Parser.formula_of_string q))
    | Query (_, q) ->
        let q = Parser.formula_of_string q in
        Json.bool_member "entails" reply
        = Some
            (match content with
            | Plain t -> Semantics.entails (Theory.conj (Parser.theory_of_string t)) q
            | Revised (t, op, p) -> R.entails (revised t op p) q)
    | Check (_, op, p, models) ->
        let r = revised (theory_of content) op p in
        Json.list_member "results" reply
        = Some (List.map (fun m -> Json.Bool (R.model_check r (interp r m))) models)
    | Batch members -> (
        match Json.list_member "responses" reply with
        | Some replies when List.length replies = List.length members ->
            List.for_all2 (correct content) members replies
        | _ -> false)
  in
  Serve_common.make
    {
      name = "serve-cold";
      passes_per_10s = 9;
      (* Set-up (loading thirteen small KBs) takes a few milliseconds:
         time it several times a pass. *)
      setups_per_pass = 4;
      setup_lines =
        Array.to_list (Array.map2 (fun kb t -> render (value (Load (kb, t)))) kbs theories)
        @ [ render (value (Load (journal, journal_theory))); render (O [ ("verb", S "compile"); ("kb", S kbs.(0)) ]) ];
      lines = Array.map (fun (_, r) -> render (value r)) pass;
      verify =
        (fun first k ->
          let content, request = pass.(k) in
          correct content request (first k));
    }
