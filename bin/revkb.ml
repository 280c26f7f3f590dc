(* revkb — command-line interface to the belief-revision library.

   Subcommands:
     revise   apply a revision operator, print models / formula / answer
     compact  build a compact representation (Theorems 3.4/3.5, Section 4/5/6)
     worlds   enumerate W(T, P) — the maximal consistent subsets
     sat      run the bundled CDCL solver on a DIMACS file
     family   generate a witness family instance (Theorems 3.1/3.3/3.6/6.5)
     analyze  static analysis: sizes, fragments, simplification, SAT routing

   Examples:
     revkb revise -o dalal -t 'a & b' -p '~a' --models
     revkb revise -o gfuv -T kb.txt -p '~b' -q 'a'
     revkb compact -o dalal -t 'a & b & c' -p '~a | ~b'
     revkb compact -o winslett --bounded -t 'a & b & c' -p '~a'
     revkb worlds -T kb.txt -p '~b'
     revkb sat problem.cnf

   Observability:
     revkb --stats ... (or REVKB_STATS=1) prints an instrumentation
     snapshot on stderr at exit; revkb trace -o out.json SUBCMD ARGS...
     additionally records every span and writes a Chrome trace_event
     JSON openable in about://tracing or Perfetto. *)

open Cmdliner
open Logic
module Obs = Revkb_obs.Obs
module Gcstats = Revkb_obs.Gcstats
module Profile = Revkb_obs.Profile

(* Telemetry writers are registered on both exit paths: [at_exit] for
   normal termination, and {!Obs.register_flusher} so SIGINT/SIGTERM
   snapshot-and-write before the process re-raises and dies by the
   signal.  Only one path ever runs a given writer (the signal path
   bypasses [at_exit]), but the guard makes each writer idempotent
   regardless. *)
let register_writer f =
  let written = ref false in
  let once () =
    if not !written then begin
      written := true;
      f ()
    end
  in
  at_exit once;
  Obs.register_flusher once

(* The at_exit snapshot prints to stderr: golden CLI tests diff stdout,
   so CI can run the whole suite under REVKB_STATS=1 without churn. *)
(* lint: domain-safe set once during CLI argument handling, before
   any pool work starts *)
let stats_hook = ref false

let enable_stats () =
  Obs.set_enabled true;
  if not !stats_hook then begin
    stats_hook := true;
    Gcstats.enable ();
    register_writer (fun () ->
        Gcstats.sample ();
        prerr_string (Revkb_obs.Export.table (Obs.snapshot ())))
  end

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* -- shared arguments ------------------------------------------------------ *)

(* Worker domains for the parallel engine.  Evaluated as part of each
   subcommand's term so the pool policy is set before any model work
   runs; results are identical at every job count (the pool's
   determinism contract), only the wall clock changes. *)
let jobs_term =
  let doc =
    "Worker domains for enumeration, distance sweeps and batch checks \
     (default: $(b,REVKB_JOBS), else the hardware's recommended domain \
     count).  $(docv)=1 forces the sequential path."
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print an instrumentation snapshot (solver, fragment-route, \
             pool and span statistics) on stderr at exit.  Implied by \
             $(b,REVKB_STATS=1).")
  in
  Term.(
    const (fun jobs stats ->
        (match jobs with
        | Some n -> Revkb_parallel.Pool.set_default_jobs n
        | None -> ());
        if stats || Obs.enabled () then enable_stats ())
    $ jobs $ stats)

let theory_args =
  let t_inline =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "theory-inline" ] ~docv:"FORMULAS"
          ~doc:"The knowledge base, inline (formulas separated by ';').")
  in
  let t_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "T"; "theory-file" ] ~docv:"FILE"
          ~doc:"File holding the knowledge base, one formula per line.")
  in
  let combine inline file =
    match (inline, file) with
    | Some s, None -> `Ok (Parser.theory_of_string s)
    | None, Some path -> `Ok (Parser.theory_of_string (read_file path))
    | None, None -> `Error (true, "a theory is required: use -t or -T")
    | Some _, Some _ -> `Error (true, "use only one of -t / -T")
  in
  Term.(ret (const combine $ t_inline $ t_file))

let p_arg =
  let doc = "The revising formula P." in
  Arg.(required & opt (some string) None & info [ "p" ] ~docv:"FORMULA" ~doc)

let ps_arg =
  let doc =
    "Further revising formulas, applied left to right after $(b,-p) \
     (iterated revision)."
  in
  Arg.(value & opt_all string [] & info [ "then" ] ~docv:"FORMULA" ~doc)

let op_arg =
  let doc =
    "Revision operator: gfuv, widtio, nebel, winslett, borgida, forbus, \
     satoh, dalal or weber."
  in
  let parse s =
    match Revision.Operator.of_name s with
    | Some op -> Ok op
    | None -> Error (`Msg (Printf.sprintf "unknown operator %S" s))
  in
  let print ppf op = Format.pp_print_string ppf (Revision.Operator.name op) in
  Arg.(
    value
    & opt (conv (parse, print)) Revision.Operator.Dalal
    & info [ "o"; "operator" ] ~docv:"OP" ~doc)

(* -- revise ----------------------------------------------------------------- *)

let revise_cmd =
  let models_flag =
    Arg.(value & flag & info [ "models" ] ~doc:"Print the model set.")
  in
  let dnf_flag =
    Arg.(value & flag & info [ "dnf" ] ~doc:"Print the naive DNF formula.")
  in
  let min_flag =
    Arg.(
      value & flag
      & info [ "minimized" ] ~doc:"Print the Quine-McCluskey minimized DNF.")
  in
  let query =
    Arg.(
      value
      & opt (some string) None
      & info [ "q"; "query" ] ~docv:"FORMULA"
          ~doc:"Decide T * P |= Q and print the answer.")
  in
  let run () theory op p ps models_flag dnf_flag min_flag query =
    let p = Parser.formula_of_string p in
    let ps = List.map Parser.formula_of_string ps in
    let result =
      match ps with
      | [] -> Revision.Operator.revise op theory p
      | _ -> Revision.Iterate.revise_seq op theory (p :: ps)
    in
    let default = not (models_flag || dnf_flag || min_flag || query <> None) in
    if models_flag || default then
      Format.printf "%a@." Revision.Result.pp result;
    if dnf_flag then
      Format.printf "dnf: %a@." Formula.pp (Revision.Result.to_dnf result);
    if min_flag then
      Format.printf "minimized: %a@." Formula.pp
        (Revision.Result.to_minimized_dnf result);
    (match query with
    | Some q ->
        let q = Parser.formula_of_string q in
        Format.printf "T * P |= %a : %b@." Formula.pp q
          (Revision.Result.entails result q)
    | None -> ());
    0
  in
  let term =
    Term.(
      const run $ jobs_term $ theory_args $ op_arg $ p_arg $ ps_arg
      $ models_flag $ dnf_flag $ min_flag $ query)
  in
  Cmd.v
    (Cmd.info "revise" ~doc:"Apply a revision operator to a knowledge base.")
    term

(* -- compact ------------------------------------------------------------------ *)

let compact_cmd =
  let bounded_flag =
    Arg.(
      value & flag
      & info [ "bounded" ]
          ~doc:
            "Use the bounded-|P| constructions of Section 4 (formulas \
             (5)-(9); logically equivalent, no new letters).  A single \
             revision: not with $(b,--then).")
  in
  let verify_flag =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Check the construction against the semantic revision \
             (enumerates models; small alphabets only) and print analyzer \
             metrics.")
  in
  let run () theory op p ps bounded verify =
    let t = Theory.conj theory in
    let p = Parser.formula_of_string p in
    let ps = List.map Parser.formula_of_string ps in
    if not (Revision.Operator.is_model_based op) then begin
      Printf.eprintf
        "compact representations exist for the model-based operators \
         (and trivially for WIDTIO)\n";
      exit 2
    end;
    if bounded && ps <> [] then begin
      Printf.eprintf "--bounded builds a single revision: drop --then\n";
      exit 2
    end;
    let mop = Revision.Operator.model_op op in
    let formula =
      if bounded then Compact.Bounded.for_op mop t p
      else Compact.Construct.(final t (iterate mop (Kb.make t) (p :: ps)))
    in
    Format.printf "%a@." Formula.pp formula;
    Format.printf "# size %d (input %d)@." (Formula.size formula)
      (Formula.size t + Formula.size p
      + List.fold_left (fun acc q -> acc + Formula.size q) 0 ps);
    if verify then begin
      let result =
        match ps with
        | [] -> Revision.Operator.revise op theory p
        | _ -> Revision.Iterate.revise_seq op theory (p :: ps)
      in
      Format.printf "%a@." (fun ppf () -> Compact.Verify.report ppf result formula) ()
    end;
    0
  in
  let term =
    Term.(
      const run $ jobs_term $ theory_args $ op_arg $ p_arg $ ps_arg
      $ bounded_flag $ verify_flag)
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:
         "Build a compact representation of the revised knowledge base \
          (Theorems 3.4/3.5, Sections 4-6).")
    term

(* -- compile ------------------------------------------------------------------ *)

let compile_cmd =
  let p_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "p" ] ~docv:"FORMULA"
          ~doc:
            "Revise the compiled theory by this formula (on the diagrams, \
             model-based operators only) and report/query the result.")
  in
  let sift_flag =
    Arg.(
      value & flag
      & info [ "sift" ]
          ~doc:"Run one Rudell sifting pass after compiling and report the \
                reduced size.")
  in
  let no_force =
    Arg.(
      value & flag
      & info [ "no-force" ]
          ~doc:"Skip the FORCE structural order; use the letters in sorted \
                order.")
  in
  let queries =
    Arg.(
      value & opt_all string []
      & info [ "q"; "query" ] ~docv:"FORMULA"
          ~doc:"Decide entailment against the compiled (revised) diagram; \
                repeatable.")
  in
  let count_flag =
    Arg.(
      value & flag
      & info [ "count" ] ~doc:"Print the model count of the compiled KB.")
  in
  let run () theory op p ps sift_pass no_force queries count_flag =
    let t = Theory.conj theory in
    let order =
      if no_force then Some (Var.Set.elements (Formula.vars t)) else None
    in
    let compiled = Semantics.Compiled.compile ?order t in
    let mgr = Semantics.Compiled.manager compiled in
    Format.printf "letters: %d@." (List.length (Semantics.Compiled.order compiled));
    Format.printf "order: %a@."
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
         Var.pp)
      (Semantics.Compiled.order compiled);
    Format.printf "theory nodes: %d@." (Semantics.Compiled.size compiled);
    if sift_pass then begin
      Bdd.sift mgr;
      Format.printf "after sifting: %d nodes@." (Semantics.Compiled.size compiled)
    end;
    if count_flag then
      Format.printf "models: %d@." (Semantics.Compiled.count compiled);
    let target =
      match p with
      | None ->
          if ps <> [] then begin
            Printf.eprintf "--then requires -p\n";
            exit 2
          end;
          Semantics.Compiled.root compiled
      | Some p ->
          let reviser =
            match op with
            | Revision.Operator.Winslett -> Bdd.Revise.winslett
            | Revision.Operator.Borgida -> Bdd.Revise.borgida
            | Revision.Operator.Forbus -> Bdd.Revise.forbus
            | Revision.Operator.Satoh -> Bdd.Revise.satoh
            | Revision.Operator.Dalal -> Bdd.Revise.dalal
            | Revision.Operator.Weber -> Bdd.Revise.weber
            | _ ->
                Printf.eprintf
                  "diagram revision covers the model-based operators\n";
                exit 2
          in
          let steps = List.map Parser.formula_of_string (p :: ps) in
          List.iter
            (fun q -> Bdd.extend mgr (Var.Set.elements (Formula.vars q)))
            steps;
          let result =
            List.fold_left
              (fun acc q ->
                let qn = Bdd.of_formula mgr q in
                Format.printf "revising nodes: %d@." (Bdd.node_count qn);
                reviser mgr acc qn)
              (Semantics.Compiled.root compiled)
              steps
          in
          Format.printf "revised nodes: %d@." (Bdd.node_count result);
          if count_flag then
            Format.printf "revised models: %d@." (Bdd.sat_count mgr result);
          result
    in
    List.iter
      (fun q ->
        let qf = Parser.formula_of_string q in
        Bdd.extend mgr (Var.Set.elements (Formula.vars qf));
        let qn = Bdd.of_formula mgr qf in
        Format.printf "|= %a : %b@." Formula.pp qf
          (Bdd.is_false (Bdd.and_ target (Bdd.not_ qn))))
      queries;
    0
  in
  let term =
    Term.(
      const run $ jobs_term $ theory_args $ op_arg $ p_opt $ ps_arg
      $ sift_flag $ no_force $ queries $ count_flag)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compile a knowledge base to an ROBDD (the serving read path): \
          report diagram sizes and variable orders, optionally revise on \
          the compiled form ($(b,-o), $(b,-p)), sift, and answer \
          entailment queries in diagram-linear time.")
    term

(* -- worlds ------------------------------------------------------------------- *)

let worlds_cmd =
  let run () theory p =
    let p = Parser.formula_of_string p in
    let ws = Revision.Formula_based.worlds theory p in
    Format.printf "%d possible world(s):@." (List.length ws);
    List.iter (fun w -> Format.printf "  %a@." Theory.pp w) ws;
    let widtio = Revision.Formula_based.widtio theory p in
    Format.printf "WIDTIO: %a@." Theory.pp widtio;
    0
  in
  let term = Term.(const run $ jobs_term $ theory_args $ p_arg) in
  Cmd.v
    (Cmd.info "worlds"
       ~doc:"Enumerate W(T, P): the maximal subsets of T consistent with P.")
    term

(* -- sat ---------------------------------------------------------------------- *)

let sat_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"DIMACS CNF file.")
  in
  let run path =
    let nvars, clauses =
      try Satsolver.Dimacs.parse_file path
      with Satsolver.Dimacs.Parse_error { line; msg } ->
        Printf.eprintf "revkb: %s:%d: %s\n" path line msg;
        exit 1
    in
    let solver = Satsolver.Solver.create () in
    (* Allocate up to the header's declared count so the v line covers
       variables that appear in no clause (reported as false). *)
    Satsolver.Solver.ensure_nvars solver nvars;
    Satsolver.Dimacs.load solver clauses;
    if Satsolver.Solver.solve solver then begin
      print_endline "s SATISFIABLE";
      let model = Satsolver.Solver.model solver in
      let buf = Buffer.create 256 in
      Buffer.add_string buf "v ";
      Array.iteri
        (fun v b ->
          Buffer.add_string buf (string_of_int (if b then v + 1 else -(v + 1)));
          Buffer.add_char buf ' ')
        model;
      Buffer.add_string buf "0";
      print_endline (Buffer.contents buf);
      0
    end
    else begin
      print_endline "s UNSATISFIABLE";
      0
    end
  in
  Cmd.v
    (Cmd.info "sat" ~doc:"Run the bundled CDCL solver on a DIMACS file.")
    Term.(const run $ file)

(* -- family ------------------------------------------------------------------- *)

let family_cmd =
  let which =
    Arg.(
      required
      & pos 0 (some (enum
             [
               ("gfuv", `Gfuv);
               ("forbus", `Forbus);
               ("dalal", `Dalal);
               ("iterated", `Iterated);
               ("nebel", `Nebel);
               ("winslett", `Winslett);
             ])) None
      & info [] ~docv:"FAMILY"
          ~doc:
            "Witness family: gfuv (Thm 3.1), forbus (Thm 3.3), dalal (Thm \
             3.6), iterated (Thm 6.5), nebel or winslett (Section 3.1 \
             examples).")
  in
  let size =
    Arg.(
      value & opt int 3
      & info [ "n" ] ~docv:"N"
          ~doc:"Parameter: number of 3-SAT atoms, or m for the examples.")
  in
  let run which n =
    (match which with
    | `Gfuv ->
        let fam = Witness.Gfuv_family.make (Witness.Threesat.full_universe n) in
        Format.printf "# T_n (%d atomic facts):@.%a@.# P_n:@.%a@."
          (List.length fam.Witness.Gfuv_family.t_n)
          Theory.pp fam.Witness.Gfuv_family.t_n Formula.pp
          fam.Witness.Gfuv_family.p_n
    | `Forbus ->
        let fam =
          Witness.Forbus_family.make (Witness.Threesat.full_universe n)
        in
        Format.printf "# T_n:@.%a@.# P_n:@.%a@." Theory.pp
          fam.Witness.Forbus_family.t_n Formula.pp
          fam.Witness.Forbus_family.p_n
    | `Dalal ->
        let fam =
          Witness.Dalal_family.make (Witness.Threesat.full_universe n)
        in
        Format.printf "# T_n:@.%a@.# P_n:@.%a@." Formula.pp
          fam.Witness.Dalal_family.t_n Formula.pp fam.Witness.Dalal_family.p_n
    | `Iterated ->
        let fam =
          Witness.Iterated_family.make (Witness.Threesat.full_universe n)
        in
        Format.printf "# T_n:@.%a@." Formula.pp
          fam.Witness.Iterated_family.t_n;
        List.iteri
          (fun i p -> Format.printf "# P%d:@.%a@." (i + 1) Formula.pp p)
          fam.Witness.Iterated_family.ps
    | `Nebel ->
        let ex = Witness.Nebel_example.make n in
        Format.printf "# T1:@.%a@.# P1:@.%a@.# worlds: %d@." Theory.pp
          ex.Witness.Nebel_example.t1 Formula.pp ex.Witness.Nebel_example.p1
          (Witness.Nebel_example.world_count ex)
    | `Winslett ->
        let ex = Witness.Winslett_example.make n in
        Format.printf "# T2:@.%a@.# P2:@.%a@.# worlds: %d@." Theory.pp
          ex.Witness.Winslett_example.t2 Formula.pp
          ex.Witness.Winslett_example.p2
          (Witness.Winslett_example.world_count ex));
    0
  in
  Cmd.v
    (Cmd.info "family"
       ~doc:"Generate a hardness witness family (Sections 3-6).")
    Term.(const run $ which $ size)

(* -- check -------------------------------------------------------------------- *)

let check_cmd =
  let interp_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "m"; "model" ] ~docv:"LETTERS"
          ~doc:
            "Interpretation to check, as a comma-separated list of the true              letters (empty string for the all-false interpretation).")
  in
  let run () theory op p m =
    let t = Theory.conj theory in
    let p = Parser.formula_of_string p in
    let interp =
      if String.trim m = "" then Var.Set.empty
      else
        Var.set_of_list
          (List.map
             (fun x -> Var.named (String.trim x))
             (String.split_on_char ',' m))
    in
    if not (Revision.Operator.is_model_based op) then begin
      Printf.eprintf
        "SAT-based model checking covers the model-based operators\n";
      exit 2
    end;
    Format.printf "M |= T * P : %b@."
      (Compact.Check.model_check (Revision.Operator.model_op op) t p interp);
    0
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "SAT-based model checking M |= T * P (no model enumeration; scales           to large alphabets).")
    Term.(const run $ jobs_term $ theory_args $ op_arg $ p_arg $ interp_arg)

(* -- analyze ------------------------------------------------------------------ *)

let analyze_cmd =
  let file =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Formula file (formulas separated by ';' or newlines are \
                read as a theory and analyzed as their conjunction).")
  in
  let inline =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "formula" ] ~docv:"FORMULA" ~doc:"Inline formula.")
  in
  let run file inline =
    let src =
      match (file, inline) with
      | Some path, None -> read_file path
      | None, Some s -> s
      | None, None ->
          Printf.eprintf "a formula is required: give a FILE or use -f\n";
          exit 2
      | Some _, Some _ ->
          Printf.eprintf "use only one of FILE / -f\n";
          exit 2
    in
    let f = Theory.conj (Parser.theory_of_string src) in
    Format.printf "%a@." Revkb_analysis.Report.pp
      (Revkb_analysis.Report.analyze f);
    0
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static analysis of a formula: size metrics (tree and DAG), \
          fragment classification, sound simplification, and a \
          satisfiability verdict via the cheapest applicable procedure.")
    Term.(const run $ file $ inline)

(* -- repl --------------------------------------------------------------------- *)

let repl_cmd =
  let op_default =
    Arg.(
      value
      & opt string "dalal"
      & info [ "o"; "operator" ] ~docv:"OP" ~doc:"Initial operator.")
  in
  let run opname theory_opt =
    let op =
      match Revision.Operator.of_name opname with
      | Some op -> op
      | None ->
          Printf.eprintf "unknown operator %S\n" opname;
          exit 2
    in
    let base = Option.value ~default:[] theory_opt in
    let session = ref (Compact.Session.create ~op base) in
    let base_ref = ref base in
    print_endline
      "revkb interactive session (paper section 6.2 strategy: revisions are";
    print_endline
      "logged and incorporated on access).  Type 'help' for commands.";
    let help () =
      print_string
        {|  assert FORMULA   add a formula to the base theory (resets the log)
  revise FORMULA   log a revision (incorporated lazily)
  ask FORMULA      decide  T * P1 * ... * Pm |= FORMULA
  models           print the current model set
  compile          print a query-equivalent compact representation
  log              show the revision log
  show             show the base theory and operator
  op NAME          switch operator (keeps base, resets the log)
  reset            drop the revision log
  quit             exit
|}
    in
    let handle line =
      let line = String.trim line in
      let cmd, arg =
        match String.index_opt line ' ' with
        | None -> (line, "")
        | Some i ->
            ( String.sub line 0 i,
              String.trim (String.sub line i (String.length line - i)) )
      in
      match cmd with
      | "" -> true
      | "help" ->
          help ();
          true
      | "quit" | "exit" -> false
      | "assert" ->
          (try
             let f = Parser.formula_of_string arg in
             base_ref := !base_ref @ [ f ];
             session :=
               Compact.Session.create ~op:(Compact.Session.op !session)
                 !base_ref;
             Format.printf "base now has %d formula(s)@."
               (List.length !base_ref)
           with Parser.Syntax_error m -> Printf.printf "syntax error: %s\n" m);
          true
      | "revise" ->
          (try
             Compact.Session.revise !session (Parser.formula_of_string arg);
             Format.printf "logged (%d pending revision(s))@."
               (List.length (Compact.Session.log !session))
           with
          | Parser.Syntax_error m -> Printf.printf "syntax error: %s\n" m
          | Invalid_argument m -> Printf.printf "error: %s\n" m);
          true
      | "ask" ->
          (try
             let q = Parser.formula_of_string arg in
             Format.printf "%b@." (Compact.Session.ask !session q)
           with
          | Parser.Syntax_error m -> Printf.printf "syntax error: %s\n" m
          | Invalid_argument m -> Printf.printf "error: %s\n" m);
          true
      | "models" ->
          (try
             Format.printf "%a@." Revision.Result.pp
               (Compact.Session.result !session)
           with Invalid_argument m -> Printf.printf "error: %s\n" m);
          true
      | "compile" ->
          (try
             let f = Compact.Session.compile !session in
             Format.printf "%a@.# size %d@." Formula.pp f (Formula.size f)
           with Invalid_argument m -> Printf.printf "error: %s\n" m);
          true
      | "log" ->
          List.iteri
            (fun i p -> Format.printf "P%d = %a@." (i + 1) Formula.pp p)
            (Compact.Session.log !session);
          true
      | "show" ->
          Format.printf "operator: %s@.base: %a@."
            (Revision.Operator.name (Compact.Session.op !session))
            Theory.pp !base_ref;
          true
      | "op" ->
          (match Revision.Operator.of_name arg with
          | Some op ->
              session := Compact.Session.create ~op !base_ref;
              Format.printf "operator set to %s (log reset)@."
                (Revision.Operator.name op)
          | None -> Printf.printf "unknown operator %S\n" arg);
          true
      | "reset" ->
          session :=
            Compact.Session.create ~op:(Compact.Session.op !session) !base_ref;
          print_endline "log cleared";
          true
      | other ->
          Printf.printf "unknown command %S (try 'help')\n" other;
          true
    in
    let rec loop () =
      print_string "revkb> ";
      match read_line () with
      | exception End_of_file -> ()
      | line -> if handle line then loop ()
    in
    loop ();
    0
  in
  let theory_opt =
    let t_file =
      Arg.(
        value
        & opt (some file) None
        & info [ "T"; "theory-file" ] ~docv:"FILE"
            ~doc:"Initial knowledge base, one formula per line.")
    in
    Term.(
      const (Option.map (fun p -> Parser.theory_of_string (read_file p)))
      $ t_file)
  in
  Cmd.v
    (Cmd.info "repl"
       ~doc:
         "Interactive session: log revisions, incorporate on access           (Section 6.2 strategy).")
    Term.(const run $ op_default $ theory_opt)

(* -- serve -------------------------------------------------------------------- *)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve on a Unix domain socket bound at $(docv) (one client \
             at a time); default is stdin/stdout.")
  in
  let cache_cap =
    Arg.(
      value & opt int 256
      & info [ "cache-cap" ] ~docv:"N"
          ~doc:
            "Capacity of the epoch-keyed revision cache (LRU entries, \
             default 256).")
  in
  let run () socket cache_cap =
    if cache_cap < 1 then begin
      Printf.eprintf "revkb serve: --cache-cap must be >= 1\n";
      exit 2
    end;
    let server = Revkb_serve.Server.create ~cache_cap () in
    (match socket with
    | Some path -> Revkb_serve.Server.serve_socket server path
    | None -> Revkb_serve.Server.serve_fd server Unix.stdin Unix.stdout);
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived revision service: newline-delimited JSON requests \
          (verbs $(b,load), $(b,update), $(b,revise), $(b,query), \
          $(b,check), $(b,count), $(b,compile), $(b,stats), $(b,batch), \
          $(b,shutdown)) against a named-KB registry with pooled \
          incremental sessions, an optional compiled ROBDD route, an \
          epoch-keyed LRU revision cache, and pool-fanned batch model \
          checking.  One instrumentation snapshot is emitted per process \
          at exit; SIGTERM drains the in-flight request before the \
          telemetry writers run.")
    Term.(const run $ jobs_term $ socket $ cache_cap)

(* -- trace -------------------------------------------------------------------- *)

(* [revkb trace [-o FILE] SUBCMD ARGS...] is handled by a pre-scan of
   argv, not a cmdliner subcommand: the wrapped subcommand's own options
   (including its [-o OPERATOR]) must pass through untouched, which
   [pos_all] cannot deliver.  Only [-o]/[--output] before the first
   non-option token belong to trace; everything from the subcommand name
   on is re-evaluated against the normal command group.  The writer runs
   from [at_exit] so traces survive subcommands that [exit] directly. *)
let trace_prescan argv =
  let n = Array.length argv in
  if n < 2 || argv.(1) <> "trace" then argv
  else begin
    let out = ref "trace.json" in
    let rec scan i =
      if i >= n then []
      else
        match argv.(i) with
        | "-o" | "--output" ->
            if i + 1 >= n then begin
              prerr_endline "revkb trace: -o requires a file argument";
              exit 2
            end;
            out := argv.(i + 1);
            scan (i + 2)
        | _ -> Array.to_list (Array.sub argv i (n - i))
    in
    match scan 2 with
    | [] ->
        prerr_endline
          "revkb trace: missing a subcommand to trace\n\
           usage: revkb trace [-o FILE] SUBCMD ARGS...";
        exit 2
    | sub ->
        let path = !out in
        Obs.set_tracing true;
        enable_stats ();
        register_writer (fun () ->
            let events = Obs.trace_events () in
            let oc = open_out path in
            output_string oc (Revkb_obs.Export.chrome_trace events);
            close_out oc;
            let dropped = Obs.trace_dropped () in
            Printf.eprintf "trace: %d event(s)%s -> %s\n%!"
              (List.length events)
              (if dropped > 0 then Printf.sprintf ", %d dropped" dropped
               else "")
              path);
        Array.of_list (argv.(0) :: sub)
  end

(* -- profile ------------------------------------------------------------------ *)

(* [revkb profile [-o FILE] [--hz N] SUBCMD ARGS...] — the same
   pre-scan shape as [trace]: profiler options must precede the wrapped
   subcommand, which is then re-evaluated against the normal command
   group with its own arguments untouched. *)
let profile_prescan argv =
  let n = Array.length argv in
  if n < 2 || argv.(1) <> "profile" then argv
  else begin
    let out = ref "profile.folded" in
    let hz = ref 99 in
    let rec scan i =
      if i >= n then []
      else
        match argv.(i) with
        | "-o" | "--output" ->
            if i + 1 >= n then begin
              prerr_endline "revkb profile: -o requires a file argument";
              exit 2
            end;
            out := argv.(i + 1);
            scan (i + 2)
        | "--hz" ->
            if i + 1 >= n then begin
              prerr_endline "revkb profile: --hz requires an integer argument";
              exit 2
            end;
            (match int_of_string_opt argv.(i + 1) with
            | Some v when v >= 1 && v <= 1000 -> hz := v
            | _ ->
                Printf.eprintf
                  "revkb profile: invalid --hz %S (range 1..1000)\n"
                  argv.(i + 1);
                exit 2);
            scan (i + 2)
        | _ -> Array.to_list (Array.sub argv i (n - i))
    in
    match scan 2 with
    | [] ->
        prerr_endline
          "revkb profile: missing a subcommand to profile\n\
           usage: revkb profile [-o FILE] [--hz N] SUBCMD ARGS...";
        exit 2
    | sub ->
        let path = !out in
        (* Spans feed sample attribution, so recording goes on. *)
        enable_stats ();
        Profile.start ~hz:!hz ();
        register_writer (fun () ->
            Profile.stop ();
            let stacks = Profile.write path in
            Printf.eprintf "profile: %d sample(s), %d stack(s)%s -> %s\n%!"
              (Profile.sample_count ()) (List.length stacks)
              (let d = Profile.dropped () in
               if d > 0 then Printf.sprintf ", %d dropped" d else "")
              path);
        Array.of_list (argv.(0) :: sub)
  end

(* Documentation stub, like [trace_cmd]. *)
let profile_cmd =
  let term =
    Term.(
      ret
        (const
           (`Error
              (true, "usage: revkb profile [-o FILE] [--hz N] SUBCMD ARGS..."))))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run any subcommand under the wall-clock sampling profiler \
          (SIGALRM at $(b,--hz) samples/second, default 99) and write \
          collapsed stacks (default $(b,profile.folded), or $(b,-o) \
          FILE) in the folded format flamegraph.pl and speedscope read \
          directly.  Samples are attributed to the innermost open span \
          via a synthetic [span] root frame.  Profiler options must \
          precede the wrapped subcommand; everything after it is passed \
          through verbatim.")
    term

(* -- metrics ------------------------------------------------------------------ *)

(* [--metrics-out FILE] is accepted anywhere on any subcommand's
   command line, so it too is an argv pre-scan: the flag (and its
   argument) are stripped before cmdliner sees them, recording is
   turned on, and the final snapshot is written as an OpenMetrics text
   exposition — also on fatal signals, via [register_writer]. *)
let metrics_prescan argv =
  let n = Array.length argv in
  let out = ref None in
  let keep = ref [] in
  let i = ref 0 in
  while !i < n do
    (match argv.(!i) with
    | "--metrics-out" ->
        if !i + 1 >= n then begin
          prerr_endline "revkb: --metrics-out requires a file argument";
          exit 2
        end;
        out := Some argv.(!i + 1);
        incr i
    | s when String.length s > 14 && String.sub s 0 14 = "--metrics-out=" ->
        out := Some (String.sub s 14 (String.length s - 14))
    | s -> keep := s :: !keep);
    incr i
  done;
  match !out with
  | None -> argv
  | Some path ->
      Obs.set_enabled true;
      Gcstats.enable ();
      register_writer (fun () ->
          Gcstats.sample ();
          let oc = open_out path in
          output_string oc (Revkb_obs.Export.openmetrics (Obs.snapshot ()));
          close_out oc);
      Array.of_list (List.rev !keep)

(* Documentation stub: the pre-scan intercepts any real invocation, so
   this term only renders help ([revkb help trace]). *)
let trace_cmd =
  let term =
    Term.(
      ret
        (const
           (`Error (true, "usage: revkb trace [-o FILE] SUBCMD ARGS..."))))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run any subcommand with span tracing on and write a Chrome \
          trace_event JSON (default $(b,trace.json), or $(b,-o) FILE) \
          openable in about://tracing or Perfetto.  Trace options must \
          precede the wrapped subcommand; everything after it is passed \
          through verbatim.")
    term

let () =
  let default =
    Term.(ret (const (`Help (`Pager, None))))
  in
  let info =
    Cmd.info "revkb" ~version:"1.0.0"
      ~doc:
        "Belief revision operators, their compact representations, and the \
         witness families from 'The Size of a Revised Knowledge Base' \
         (PODS'95)."
  in
  (* [--metrics-out] can sit anywhere, so it is stripped once up
     front; [trace] and [profile] wrap a subcommand each, and the
     fixpoint lets them compose in either order ([revkb trace profile
     SUBCMD ...] profiles inside a trace and vice versa). *)
  let rec prescan argv =
    let argv' = profile_prescan (trace_prescan argv) in
    if argv' == argv then argv else prescan argv'
  in
  let cmd =
    Cmd.group ~default info
      [
        revise_cmd;
        compact_cmd;
        compile_cmd;
        worlds_cmd;
        sat_cmd;
        family_cmd;
        check_cmd;
        analyze_cmd;
        repl_cmd;
        serve_cmd;
        trace_cmd;
        profile_cmd;
      ]
  in
  (* The one error boundary: bad input and exhausted caps end the run
     with one line on stderr; anything else is still an internal error,
     with cmdliner's exit code. *)
  let fail code msg =
    Printf.eprintf "revkb: %s\n" msg;
    code
  in
  let argv = prescan (metrics_prescan Sys.argv) in
  exit
    (match Cmd.eval' ~catch:false ~argv cmd with
    | code -> code
    | exception Parser.Syntax_error msg -> fail 2 ("syntax error " ^ msg)
    | exception Invalid_argument msg -> fail 1 msg
    | exception
        (( Semantics.Enumeration_cap_exceeded _
         | Compact.Check.Cegar_cap_exceeded _ ) as e) ->
        fail 1 (Printexc.to_string e)
    | exception e ->
        fail Cmd.Exit.internal_error
          ("internal error, uncaught exception: " ^ Printexc.to_string e))
