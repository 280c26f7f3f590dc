type literal = bool * Var.t
type clause = literal list
type t = clause list
