(* Minimal JSON for the serving protocol: a value type, a recursive-
   descent parser, and a deterministic renderer.  The protocol is
   newline-delimited JSON, so the parser treats a value followed only
   by whitespace as the unit of input; anything else is a protocol
   error carried as [Parse_error], never a crash. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* -- parsing --------------------------------------------------------------- *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail "expected '%c' at offset %d, got '%c'" ch c.pos x
  | None -> fail "expected '%c' at offset %d, got end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "unrecognized token at offset %d" c.pos

(* Strings: the JSON escapes; \uXXXX is decoded to UTF-8 (surrogate
   pairs are not needed by the protocol and are rejected). *)
let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let hex4 () =
    if c.pos + 4 > String.length c.src then
      fail "truncated \\u escape at offset %d" c.pos;
    let s = String.sub c.src c.pos 4 in
    c.pos <- c.pos + 4;
    match int_of_string_opt ("0x" ^ s) with
    | Some v -> v
    | None -> fail "bad \\u escape '\\u%s'" s
  in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' ->
        advance c;
        Buffer.contents b
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail "unterminated escape"
        | Some ch ->
            advance c;
            (match ch with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                let v = hex4 () in
                if v >= 0xD800 && v <= 0xDFFF then
                  fail "surrogate \\u%04X unsupported" v
                else if v < 0x80 then Buffer.add_char b (Char.chr v)
                else if v < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (v lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (v land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (v lsr 12)));
                  Buffer.add_char b
                    (Char.chr (0x80 lor ((v lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (v land 0x3F)))
                end
            | ch -> fail "bad escape '\\%c'" ch);
            go ())
    | Some ch when Char.code ch < 0x20 ->
        fail "raw control character in string at offset %d" c.pos
    | Some ch ->
        advance c;
        Buffer.add_char b ch;
        go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let rec go () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+') ->
        advance c;
        go ()
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance c;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub c.src start (c.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail "bad number '%s'" s
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        (* Integer literal out of native range: keep it as a float
           rather than refusing the request. *)
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail "bad number '%s'" s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "empty input"
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              members ((key, v) :: acc)
          | Some '}' ->
              advance c;
              Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}' at offset %d" c.pos
        in
        members []
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              elements (v :: acc)
          | Some ']' ->
              advance c;
              List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']' at offset %d" c.pos
        in
        elements []
      end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail "unexpected '%c' at offset %d" ch c.pos

let parse s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then
    fail "trailing garbage at offset %d" c.pos;
  v

(* -- rendering ------------------------------------------------------------- *)

module Export = Revkb_obs.Export

let rec render_to b v =
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (Export.json_float f)
  | Str s -> Export.add_json_string b s
  | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          render_to b v)
        vs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Export.add_json_string b k;
          Buffer.add_char b ':';
          render_to b v)
        kvs;
      Buffer.add_char b '}'

let render v =
  let b = Buffer.create 64 in
  render_to b v;
  Buffer.contents b

(* -- accessors ------------------------------------------------------------- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let str_member key v =
  match member key v with Some (Str s) -> Some s | _ -> None

let int_member key v =
  match member key v with Some (Int i) -> Some i | _ -> None

let bool_member key v =
  match member key v with Some (Bool b) -> Some b | _ -> None

let list_member key v =
  match member key v with Some (List l) -> Some l | _ -> None
