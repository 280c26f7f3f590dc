(* cli-enumerate: the calls [revkb revise --models --dnf] makes --
   Parser, then Revision.Operator.revise, then Revision.Result render --
   made in process, so process start-up (timed on its own as setup_s)
   does not swamp them.

   All six model-based operators, each on the same fixed strata of
   random 3-CNF and Theorem 3.6 witness-family theories at 12-16
   letters, plus about one call in ten on a Wide_family-shaped instance
   at 64-72 letters.  This is the only workload through Models,
   Interp_packed.sweep, Interp_wide and Model_based selection; the
   serve workloads never reach them.  Strata are fixed so every seed
   draws the same mix of sizes and only the formulas change. *)

open Logic
module MB = Revision.Model_based
module Op = Revision.Operator
module R = Revision.Result
module W = Workload

(* (shape, letters, instances per operator); most calls at 12-14
   letters, where a call costs milliseconds rather than a second. *)
let strata =
  [
    (`Cnf, 12, 6); (`Cnf, 13, 5); (`Cnf, 14, 4); (`Cnf, 15, 2); (`Cnf, 16, 1);
    (`Witness, 12, 3); (`Witness, 13, 2); (`Witness, 14, 2); (`Witness, 15, 1);
  ]

(* Multi-word instances (letters, letters P leaves free): their cost
   and size depend on the shape alone. *)
let wide = [ (64, 2); (68, 3); (72, 4) ]

type item = { inst : Inputs.instance; op : MB.op; is_wide : bool }

let generate rng =
  let per_op op =
    List.concat_map
      (fun (shape, n, count) ->
        List.init count (fun _ ->
            let inst =
              match shape with
              | `Cnf -> Inputs.random_3cnf rng n
              | `Witness ->
                  let atoms = if n <= 13 then 3 else 4 in
                  Inputs.witness rng ~atoms ~clauses:(n - (2 * atoms))
            in
            { inst; op; is_wide = false }))
      strata
    @ List.map (fun (n, m) -> { inst = Inputs.wide ~n ~m; op; is_wide = true }) wide
  in
  let items = Array.of_list (List.concat_map per_op MB.all) in
  Inputs.shuffle rng items;
  items

let op_of = function
  | MB.Winslett -> Op.Winslett
  | MB.Borgida -> Op.Borgida
  | MB.Forbus -> Op.Forbus
  | MB.Satoh -> Op.Satoh
  | MB.Dalal -> Op.Dalal
  | MB.Weber -> Op.Weber

let bdd_revise = function
  | MB.Winslett -> Bdd.Revise.winslett
  | MB.Borgida -> Bdd.Revise.borgida
  | MB.Forbus -> Bdd.Revise.forbus
  | MB.Satoh -> Bdd.Revise.satoh
  | MB.Dalal -> Bdd.Revise.dalal
  | MB.Weber -> Bdd.Revise.weber

(* A model set by letter names, independent of letter ids and order:
   its size and a digest. *)
let canonical models =
  ( List.length models,
    Digest.string
      (String.concat "\n"
         (List.sort compare
            (List.map
               (fun m -> String.concat " " (List.sort compare (List.map Var.name (Var.Set.elements m))))
               models))) )

(* What [revkb revise --models --dnf] prints. *)
let render result =
  let dnf = R.to_dnf result in
  (Format.asprintf "%a@.dnf: %a@." R.pp result Formula.pp dnf, dnf)

type first = { letters : int; models : int * Digest.t; dnf_size : int }

(* The oracle: the same revision on ROBDDs (Bdd.Revise), a route that
   shares no code with enumeration and mask selection. *)
let oracle item =
  let t = Theory.conj (Parser.theory_of_string item.inst.theory) in
  let p = Parser.formula_of_string item.inst.p in
  let alphabet = Var.Set.elements (Var.Set.union (Formula.vars t) (Formula.vars p)) in
  let m = Bdd.manager alphabet in
  let node = bdd_revise item.op m (Bdd.of_formula m t) (Bdd.of_formula m p) in
  (List.length alphabet, canonical (Bdd.models m node))

let make ~rng ~revkb =
  let items = generate rng in
  let last = ref None in
  let firsts = Array.make (Array.length items) None in
  let call k =
    let { inst; op; _ } = items.(k) in
    let theory = Parser.theory_of_string inst.theory in
    let p = Parser.formula_of_string inst.p in
    let result = Op.revise (op_of op) theory p in
    last := Some (result, render result)
  in
  let reply k =
    match !last with
    | None -> { W.ok = false; text = ""; size = None }
    | Some (result, (text, dnf)) ->
        last := None;
        if firsts.(k) = None then
          firsts.(k) <-
            Some
              {
                letters = List.length (R.alphabet result);
                models = canonical (R.models result);
                dnf_size = Formula.size dnf;
              };
        { W.ok = true; text; size = Some (Formula.size dnf) }
  in
  let verify () =
    let good =
      Array.mapi
        (fun k item ->
          match firsts.(k) with
          | None -> false
          | Some f ->
              let letters, models = oracle item in
              (* The printed DNF holds one full minterm per model. *)
              f.letters = letters && f.models = models && f.dnf_size = fst models * letters)
        items
    in
    fun k -> good.(k)
  in
  let probes k =
    let { inst; op; is_wide } = items.(k) in
    let parse () = (Parser.theory_of_string inst.theory, Parser.formula_of_string inst.p) in
    let theory, p = parse () in
    let t = Theory.conj theory in
    let alpha = Interp_packed.alphabet (Models.alphabet_of [ t; p ]) in
    let select =
      if Interp_packed.fits alpha then
        let ts = Models.enumerate_packed alpha t and ps = Models.enumerate_packed alpha p in
        fun () -> ignore (MB.Packed.select op ts ps)
      else
        let ts = Models.enumerate_wide alpha t and ps = Models.enumerate_wide alpha p in
        fun () -> ignore (MB.Wide.select op alpha ts ps)
    in
    let result = Op.revise (op_of op) theory p in
    [
      { W.metric = "logic.parser.parse_ms"; ns = Runner.probe_ns parse; covers = true };
      { W.metric = "revision.model_based.select_ms"; ns = Runner.probe_ns select; covers = true };
      { W.metric = "revision.result.render_ms"; ns = Runner.probe_ns (fun () -> render result); covers = true };
    ]
    @
    if is_wide then
      [
        {
          W.metric = "revision.operator.wide_call_ms";
          ns = Runner.probe_ns (fun () -> Op.revise (op_of op) theory p);
          covers = false;
        };
      ]
    else []
  in
  (* One real [revkb revise] process: start-up, module initialisation
     and argument parsing, which every CLI call pays and the in-process
     calls skip. *)
  let setup () =
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process revkb
        [| revkb; "revise"; "-o"; "dalal"; "-t"; "a & b"; "-p"; "~a"; "--models"; "--dnf" |]
        devnull devnull devnull
    in
    Unix.close devnull;
    (* The traced run's profiler interrupts the wait with SIGALRM. *)
    let rec wait () =
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith (revkb ^ " revise exited abnormally")
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ()
  in
  {
    W.name = "cli-enumerate";
    ops = Array.length items;
    passes_per_10s = 12;
    setups_per_pass = 4;
    setup;
    call;
    reply;
    verify;
    probes;
    (* Selection's probe covers the distance spans and the pool tasks
       inside it; enumeration's pool tasks sit inside its own span. *)
    envelope = (fun name -> String.starts_with ~prefix:"dist." name || name = "pool.task");
  }
