(** A small concrete syntax for formulas and theories.

    Grammar (lowest precedence first, [->] right-associative):

    {v
      formula ::= imp (("==" | "<->") imp | ("!=" | "xor") imp)*
      imp     ::= or ("->" imp)?
      or      ::= and ("|" and)*
      and     ::= unary ("&" unary)*
      unary   ::= ("~" | "!") unary | atom
      atom    ::= ident | "true" | "false" | "(" formula ")"
    v}

    A {e theory} is a sequence of formulas separated by [;] or newlines
    (lines starting with [#] are comments), matching the paper's view of a
    knowledge base as a finite set of formulas. *)

exception Syntax_error of string
(** Raised on malformed input, and on parentheses nested more than
    1,000 deep (the one resource bound of the grammar: a deeper chain
    would cost time quadratic in its depth to build).  Every message —
    from the tokenizer and from the parser proper — starts with
    ["at offset N: ..."] where [N] is the 0-based character offset of
    the offending token. *)

val formula_of_string : string -> Formula.t
val theory_of_string : string -> Formula.t list
