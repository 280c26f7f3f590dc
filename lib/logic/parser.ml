exception Syntax_error of string

type token =
  | TIdent of string
  | TTrue
  | TFalse
  | TNot
  | TAnd
  | TOr
  | TImp
  | TIff
  | TXor
  | TLparen
  | TRparen
  | TSemi
  | TEof

let pp_token = function
  | TIdent s -> s
  | TTrue -> "true"
  | TFalse -> "false"
  | TNot -> "~"
  | TAnd -> "&"
  | TOr -> "|"
  | TImp -> "->"
  | TIff -> "=="
  | TXor -> "!="
  | TLparen -> "("
  | TRparen -> ")"
  | TSemi -> ";"
  | TEof -> "<eof>"

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '\''

let error offset fmt =
  Printf.ksprintf
    (fun msg -> raise (Syntax_error (Printf.sprintf "at offset %d: %s" offset msg)))
    fmt

(* The deepest parenthesis nesting a formula may have.  Each level's
   [Formula.and_]/[or_] copies its child's list of operands, so a chain
   nested n deep costs O(n^2) to build: at 10,000 levels that is
   seconds, at 40,000 over a minute of one serve request.  The
   tokenizer refuses such input at the first parenthesis past the
   bound, before any of that work starts. *)
let max_depth = 1_000

(* [keep_newlines] turns newlines into [;] so theories can be written one
   formula per line.  Every token carries the offset of its first
   character so parse errors can point back into the source. *)
let tokenize ~keep_newlines src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let depth = ref 0 in
  let emit_at off t = toks := (t, off) :: !toks in
  let emit t = emit_at !i t in
  while !i < n do
    let c = src.[!i] in
    if c = '#' then begin
      (* comment to end of line *)
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '\n' then begin
      if keep_newlines then emit TSemi;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let word = String.sub src start (!i - start) in
      let emit = emit_at start in
      match word with
      | "true" | "T" -> emit TTrue
      | "false" | "F" -> emit TFalse
      | "xor" -> emit TXor
      | "and" -> emit TAnd
      | "or" -> emit TOr
      | "not" -> emit TNot
      | _ -> emit (TIdent word)
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      let three = if !i + 2 < n then String.sub src !i 3 else "" in
      if three = "<->" then begin
        emit TIff;
        i := !i + 3
      end
      else
      match two with
      | "->" -> emit TImp; i := !i + 2
      | "==" -> emit TIff; i := !i + 2
      | "!=" -> emit TXor; i := !i + 2
      | "/\\" -> emit TAnd; i := !i + 2
      | "\\/" -> emit TOr; i := !i + 2
      | _ -> (
          match c with
          | '~' | '!' -> emit TNot; incr i
          | '&' -> emit TAnd; incr i
          | '|' -> emit TOr; incr i
          | '(' ->
              if !depth >= max_depth then
                error !i "parentheses nested deeper than %d" max_depth;
              incr depth; emit TLparen; incr i
          | ')' -> decr depth; emit TRparen; incr i
          | ';' -> emit TSemi; incr i
          | '^' -> emit TXor; incr i
          | _ -> error !i "unexpected character %C" c)
    end
  done;
  emit_at n TEof;
  List.rev !toks

type state = { mutable toks : (token * int) list }

let peek st = match st.toks with [] -> TEof | (t, _) :: _ -> t
let offset st = match st.toks with [] -> 0 | (_, off) :: _ -> off

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st t =
  if peek st = t then advance st
  else
    error (offset st) "expected %s but found %s" (pp_token t)
      (pp_token (peek st))

let rec parse_formula st = parse_iff st

and parse_iff st =
  let lhs = parse_imp st in
  let rec go lhs =
    match peek st with
    | TIff ->
        advance st;
        go (Formula.iff lhs (parse_imp st))
    | TXor ->
        advance st;
        go (Formula.xor lhs (parse_imp st))
    | _ -> lhs
  in
  go lhs

and parse_imp st =
  let lhs = parse_or st in
  match peek st with
  | TImp ->
      advance st;
      Formula.imp lhs (parse_imp st)
  | _ -> lhs

and parse_or st =
  let lhs = parse_and st in
  let rec go acc =
    match peek st with
    | TOr ->
        advance st;
        go (parse_and st :: acc)
    | _ -> List.rev acc
  in
  match go [ lhs ] with [ f ] -> f | fs -> Formula.or_ fs

and parse_and st =
  let lhs = parse_unary st in
  let rec go acc =
    match peek st with
    | TAnd ->
        advance st;
        go (parse_unary st :: acc)
    | _ -> List.rev acc
  in
  match go [ lhs ] with [ f ] -> f | fs -> Formula.and_ fs

and parse_unary st =
  match peek st with
  | TNot ->
      advance st;
      Formula.not_ (parse_unary st)
  | _ -> parse_atom st

and parse_atom st =
  match peek st with
  | TIdent s ->
      advance st;
      Formula.v s
  | TTrue ->
      advance st;
      Formula.top
  | TFalse ->
      advance st;
      Formula.bot
  | TLparen ->
      advance st;
      let f = parse_formula st in
      expect st TRparen;
      f
  | t -> error (offset st) "unexpected %s" (pp_token t)

let formula_of_string s =
  let st = { toks = tokenize ~keep_newlines:false s } in
  let f = parse_formula st in
  expect st TEof;
  f

let theory_of_string s =
  let st = { toks = tokenize ~keep_newlines:true s } in
  let rec go acc =
    match peek st with
    | TEof -> List.rev acc
    | TSemi ->
        advance st;
        go acc
    | _ ->
        let f = parse_formula st in
        (match peek st with
        | TSemi | TEof -> ()
        | t -> error (offset st) "expected ; or end of input, found %s" (pp_token t));
        go (f :: acc)
  in
  go []
