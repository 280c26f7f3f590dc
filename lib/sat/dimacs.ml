exception Parse_error of { line : int; msg : string }

let parse_string s =
  let nvars = ref 0 in
  let clauses = ref [] in
  let current = ref [] in
  let lines = String.split_on_char '\n' s in
  let fail lineno fmt =
    Printf.ksprintf (fun msg -> raise (Parse_error { line = lineno; msg })) fmt
  in
  let handle_tok lineno tok =
    match int_of_string_opt tok with
    | None -> fail lineno "bad token %S" tok
    | Some 0 ->
        clauses := List.rev !current :: !clauses;
        current := []
    | Some i ->
        let v = abs i in
        if v > !nvars then nvars := v;
        current := Lit.of_int i :: !current
  in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let line = String.trim line in
      if line = "" then ()
      else
        match line.[0] with
        | 'c' | '%' -> ()
        | 'p' -> (
            (* "p cnf NVARS NCLAUSES".  The declared variable count is
               authoritative for variables that appear in no clause; the
               scan below can only raise it. *)
            match
              String.split_on_char ' ' line |> List.filter (fun t -> t <> "")
            with
            | [ "p"; "cnf"; nv; _ ] -> (
                match int_of_string_opt nv with
                | Some n when n >= 0 -> if n > !nvars then nvars := n
                | _ -> fail lineno "bad header %S" line)
            | _ -> fail lineno "bad header %S" line)
        | _ ->
            String.split_on_char ' ' line
            |> List.filter (fun t -> t <> "")
            |> List.iter (handle_tok lineno))
    lines;
  if !current <> [] then clauses := List.rev !current :: !clauses;
  (!nvars, List.rev !clauses)

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let buf = really_input_string ic n in
  close_in ic;
  parse_string buf

let load solver clauses = List.iter (Solver.add_clause solver) clauses
