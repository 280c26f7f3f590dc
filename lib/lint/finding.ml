type rule = R0 | R1 | R2 | R3 | R4 | R5
type severity = Error | Warning

type t = {
  rule : rule;
  severity : severity;
  file : string;
  line : int;
  col : int;
  key : string;
  message : string;
}

let rule_id = function
  | R0 -> "R0"
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"

let rule_name = function
  | R0 -> "lint-hygiene"
  | R1 -> "domain-safety"
  | R2 -> "shift-overflow"
  | R3 -> "obs-contract"
  | R4 -> "exception-hygiene"
  | R5 -> "interface-completeness"

let severity_name = function Error -> "error" | Warning -> "warning"

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> (
              match Stdlib.compare a.rule b.rule with
              | 0 -> String.compare a.key b.key
              | c -> c)
          | c -> c)
      | c -> c)
  | c -> c

let to_json ?(baselined = false) f =
  let s = Revkb_obs.Export.json_string in
  Printf.sprintf
    "{\"type\": \"finding\", \"rule\": %s, \"name\": %s, \"severity\": %s, \
     \"file\": %s, \"line\": %d, \"col\": %d, \"key\": %s, \"message\": %s, \
     \"baselined\": %b}"
    (s (rule_id f.rule))
    (s (rule_name f.rule))
    (s (severity_name f.severity))
    (s f.file) f.line f.col (s f.key) (s f.message) baselined

let to_table_row f =
  Printf.sprintf "%s %-7s %s:%d: %s" (rule_id f.rule)
    (severity_name f.severity) f.file f.line f.message
