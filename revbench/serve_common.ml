(* What the serve workloads share: one client sends request lines to
   Server.handle_line and waits for each reply (a closed loop), timed
   from the JSON line in to the JSON line out.  Every pass runs against
   a fresh server whose set-up (load, compile, cache priming) is redone
   and timed as setup_s. *)

module Server = Revkb_serve.Server
module Json = Revkb_serve.Json
module W = Workload

type spec = {
  name : string;
  passes_per_10s : int;
  setups_per_pass : int;
  setup_lines : string list;
  lines : string array;  (** one pass *)
  verify : (int -> Json.t) -> int -> bool;
      (** Given pass one's parsed replies, whether the reply to
          position [k] is right. *)
}

(* Reply members that may differ between equal answers: a revision
   computed again names its fresh letters anew, so its printed formula
   may change text (its size may not); [cached] differs between a
   cached and a recomputed answer. *)
let rec without names = function
  | Json.Obj ms ->
      Json.Obj
        (List.filter_map
           (fun (k, v) -> if List.mem k names then None else Some (k, without names v))
           ms)
  | Json.List vs -> Json.List (List.map (without names) vs)
  | v -> v

let rec answered reply =
  Json.bool_member "ok" reply = Some true
  && List.for_all answered (Option.value ~default:[] (Json.list_member "responses" reply))

let send srv line =
  let reply = Server.handle_line srv line in
  if not (answered (Json.parse reply)) then
    failwith (Printf.sprintf "set-up request %s failed: %s" line reply)

(* Formula texts a request carries, with their parser. *)
let rec formulas req =
  List.filter_map
    (fun (field, parse) -> Option.map (fun s -> (parse, s)) (Json.str_member field req))
    [
      ("theory", fun s -> ignore (Logic.Parser.theory_of_string s));
      ("p", fun s -> ignore (Logic.Parser.formula_of_string s));
      ("q", fun s -> ignore (Logic.Parser.formula_of_string s));
    ]
  @ List.concat_map formulas (Option.value ~default:[] (Json.list_member "requests" req))

let make spec =
  let n = Array.length spec.lines in
  let srv = ref (Server.create ()) in
  let last = ref "" in
  let firsts = Array.make n None in
  let revises =
    Array.map (fun line -> Json.str_member "verb" (Json.parse line) = Some "revise") spec.lines
  in
  let setup () =
    let s = Server.create () in
    List.iter (send s) spec.setup_lines;
    srv := s
  in
  let call k = last := Server.handle_line !srv spec.lines.(k) in
  let reply k =
    let text = !last in
    let json = Json.parse text in
    if firsts.(k) = None then firsts.(k) <- Some json;
    let size = if revises.(k) then Json.int_member "size" json else None in
    { W.ok = answered json; text = Json.render (without [ "formula" ] json); size }
  in
  let verify () =
    let verdict = spec.verify (fun k -> Option.value ~default:Json.Null firsts.(k)) in
    let good = Array.init n verdict in
    fun k -> good.(k)
  in
  let probes k =
    let line = spec.lines.(k) in
    let req = Json.parse line in
    let rep = Option.value ~default:Json.Null firsts.(k) in
    let fields = formulas req in
    [
      { W.metric = "serve.json.parse_ms"; ns = Runner.probe_ns (fun () -> Json.parse line); covers = true };
      { W.metric = "serve.json.render_ms"; ns = Runner.probe_ns (fun () -> Json.render rep); covers = true };
      {
        W.metric = "logic.parser.parse_ms";
        ns = Runner.probe_ns (fun () -> List.iter (fun (parse, s) -> parse s) fields);
        covers = true;
      };
    ]
  in
  {
    W.name = spec.name;
    ops = n;
    passes_per_10s = spec.passes_per_10s;
    setups_per_pass = spec.setups_per_pass;
    setup;
    call;
    reply;
    verify;
    probes;
    envelope = String.starts_with ~prefix:"serve.request.";
  }

(* The oracle for answers served from the cache: a reference server
   with a one-entry revision cache, which recomputes what the timed
   server looked up.  It answers each distinct line once, in sorted
   order, so requests on one revision follow each other. *)
let reference ~setup_lines ~lines first =
  let n = Array.length lines in
  let reference = Server.create ~cache_cap:1 () in
  List.iter (send reference) setup_lines;
  let expected = Hashtbl.create 1024 in
  List.iter
    (fun line ->
      if not (Hashtbl.mem expected line) then
        Hashtbl.add expected line (Json.parse (Server.handle_line reference line)))
    (List.sort_uniq compare (Array.to_list lines));
  let good =
    Array.init n (fun k ->
        let got = first k in
        answered got
        && without [ "cached"; "formula" ] got
           = without [ "cached"; "formula" ] (Hashtbl.find expected lines.(k)))
  in
  fun k -> good.(k)
