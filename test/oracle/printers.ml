(* The reply-text printers the production code was rewritten from: the
   Format-based formula printer and the char-by-char JSON escape.  The
   buffer printers in Formula and Export must match them byte for
   byte. *)

open Logic

(* Precedence levels: 0 iff/xor, 1 imp, 2 or, 3 and, 4 unary. *)
let rec pp_prec prec ppf (f : Formula.t) =
  let paren p body =
    if prec > p then Format.fprintf ppf "(%t)" body else body ppf
  in
  match f with
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Var x -> Var.pp ppf x
  | Not g -> Format.fprintf ppf "~%a" (pp_prec 4) g
  | And gs ->
      paren 3 (fun ppf ->
          Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.fprintf ppf " & ")
            (pp_prec 4) ppf gs)
  | Or gs ->
      paren 2 (fun ppf ->
          Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.fprintf ppf " | ")
            (pp_prec 3) ppf gs)
  | Imp (a, b) ->
      paren 1 (fun ppf ->
          Format.fprintf ppf "%a -> %a" (pp_prec 2) a (pp_prec 1) b)
  | Iff (a, b) ->
      paren 0 (fun ppf ->
          Format.fprintf ppf "%a == %a" (pp_prec 1) a (pp_prec 1) b)
  | Xor (a, b) ->
      paren 0 (fun ppf ->
          Format.fprintf ppf "%a != %a" (pp_prec 1) a (pp_prec 1) b)

let pp_formula ppf f = pp_prec 0 ppf f

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf
