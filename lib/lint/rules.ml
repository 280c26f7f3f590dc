open Parsetree
module F = Finding

type file = {
  path : string;
  modname : string;
  text : string;
  allow : Allowlist.entry list;
  str : Parsetree.structure option;
  sg : Parsetree.signature option;
  parse_error : (int * string) option;
}

(* An Obs.counter/Obs.hist registration site. *)
type reg = {
  r_kind : [ `Counter | `Hist ];
  r_name : string;  (* the metric name literal *)
  r_var : string option;  (* let-bound variable holding it, if any *)
  r_file : string;
  r_line : int;
}

type global = {
  g_lint : file list;
  g_consts : (string, int) Hashtbl.t;  (* "Module.name" -> value *)
  g_mutable_labels : (string, unit) Hashtbl.t;
  g_regs : reg list;
  (* usage index: dotted suffixes of every referenced value path
     (last-2 and last-3 components, aliases expanded) -> files that
     contain such a reference *)
  g_usage : (string, (string, unit) Hashtbl.t) Hashtbl.t;
}

(* -- parsing ---------------------------------------------------------------- *)

let modname_of_path path =
  let base = Filename.remove_extension (Filename.basename path) in
  String.capitalize_ascii base

let error_line = function
  | Syntaxerr.Error err ->
      (Syntaxerr.location_of_error err).Location.loc_start.Lexing.pos_lnum
  | _ -> 0

let load_file ~path text =
  let is_intf = Filename.check_suffix path ".mli" in
  let lexbuf () =
    let lb = Lexing.from_string text in
    Lexing.set_filename lb path;
    lb
  in
  let str, sg, parse_error =
    if is_intf then
      match Parse.interface (lexbuf ()) with
      | sg -> (None, Some sg, None)
      | exception e -> (None, None, Some (error_line e, Printexc.to_string e))
    else
      match Parse.implementation (lexbuf ()) with
      | str -> (Some str, None, None)
      | exception e -> (None, None, Some (error_line e, Printexc.to_string e))
  in
  {
    path;
    modname = modname_of_path path;
    text;
    allow = Allowlist.scan text;
    str;
    sg;
    parse_error;
  }

(* -- small AST helpers ------------------------------------------------------ *)

let rec flatten_opt : Longident.t -> string list = function
  | Lident s -> [ s ]
  | Ldot (l, s) -> flatten_opt l @ [ s ]
  | Lapply _ -> []

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> flatten_opt txt
  | _ -> []

let last2 = function
  | [] -> []
  | [ x ] -> [ x ]
  | l -> ( match List.rev l with b :: a :: _ -> [ a; b ] | _ -> l)

let dotted l = String.concat "." l
let line_of (loc : Location.t) = loc.loc_start.pos_lnum
let col_of (loc : Location.t) = loc.loc_start.pos_cnum - loc.loc_start.pos_bol

let pat_names p =
  let out = ref [] in
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> out := txt :: !out
    | Ppat_constraint (p, _) | Ppat_alias (p, _) -> go p
    | Ppat_tuple ps -> List.iter go ps
    | _ -> ()
  in
  go p;
  List.rev !out

let pat_name p = match pat_names p with n :: _ -> Some n | [] -> None

let string_arg args =
  List.find_map
    (fun (_, a) ->
      match a.pexp_desc with
      | Pexp_constant (Pconst_string (s, _, None)) -> Some (s, a.pexp_loc)
      | _ -> None)
    args

(* -- integer constant evaluation -------------------------------------------- *)

(* Evaluates the closed integer expressions that appear as widths and
   masks: literals, [Sys.int_size], [max_int], arithmetic, and
   references to previously evaluated top-level constants (file-local
   by bare name, cross-module by [Module.name]). *)
let rec const_eval consts locals e : int option =
  let binop f a b =
    match (const_eval consts locals a, const_eval consts locals b) with
    | Some x, Some y -> ( try Some (f x y) with Division_by_zero -> None)
    | _ -> None
  in
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, None)) -> int_of_string_opt s
  | Pexp_constraint (e, _) -> const_eval consts locals e
  | Pexp_ident { txt; _ } -> (
      match flatten_opt txt with
      | [ "Sys"; "int_size" ] -> Some Sys.int_size
      | [ "max_int" ] -> Some max_int
      | [ "min_int" ] -> Some min_int
      | [ x ] -> (
          match Hashtbl.find_opt locals x with
          | Some v -> Some v
          | None -> Hashtbl.find_opt consts x)
      | path -> Hashtbl.find_opt consts (dotted (last2 path)))
  | Pexp_apply (f, [ (Nolabel, a) ]) -> (
      match ident_path f with
      | [ "lnot" ] -> Option.map lnot (const_eval consts locals a)
      | [ "~-" ] -> Option.map (fun v -> -v) (const_eval consts locals a)
      | _ -> None)
  | Pexp_apply (f, [ (Nolabel, a); (Nolabel, b) ]) -> (
      match ident_path f with
      | [ "+" ] -> binop ( + ) a b
      | [ "-" ] -> binop ( - ) a b
      | [ "*" ] -> binop ( * ) a b
      | [ "/" ] -> binop ( / ) a b
      | [ "land" ] -> binop ( land ) a b
      | [ "lor" ] -> binop ( lor ) a b
      | [ "lxor" ] -> binop ( lxor ) a b
      | [ "lsl" ] -> binop ( lsl ) a b
      | [ "lsr" ] -> binop ( lsr ) a b
      | [ "min" ] -> binop min a b
      | [ "max" ] -> binop max a b
      | _ -> None)
  | _ -> None

(* -- global context --------------------------------------------------------- *)

let iter_structure_values str f =
  (* Top-level (and top-level-in-submodule) value bindings. *)
  let rec go_str str = List.iter go_item str
  and go_item it =
    match it.pstr_desc with
    | Pstr_value (_, vbs) -> List.iter f vbs
    | Pstr_module { pmb_expr; _ } -> go_mod pmb_expr
    | Pstr_recmodule mbs -> List.iter (fun mb -> go_mod mb.pmb_expr) mbs
    | Pstr_include { pincl_mod; _ } -> go_mod pincl_mod
    | _ -> ()
  and go_mod me =
    match me.pmod_desc with
    | Pmod_structure str -> go_str str
    | Pmod_constraint (me, _) -> go_mod me
    | _ -> ()
  in
  go_str str

let collect_consts files =
  let consts = Hashtbl.create 64 in
  (* Two passes so cross-module references resolve regardless of file
     order (e.g. Interp_wide.bits_per_word = Interp_packed.max_letters). *)
  for _pass = 1 to 2 do
    List.iter
      (fun file ->
        match file.str with
        | None -> ()
        | Some str ->
            let locals = Hashtbl.create 16 in
            iter_structure_values str (fun vb ->
                match pat_name vb.pvb_pat with
                | Some name -> (
                    match const_eval consts locals vb.pvb_expr with
                    | Some v ->
                        Hashtbl.replace locals name v;
                        Hashtbl.replace consts (file.modname ^ "." ^ name) v
                    | None -> ())
                | None -> ()))
      files
  done;
  consts

let collect_mutable_labels files =
  let labels = Hashtbl.create 32 in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun it td ->
          (match td.ptype_kind with
          | Ptype_record lds ->
              List.iter
                (fun ld ->
                  if ld.pld_mutable = Mutable then
                    Hashtbl.replace labels ld.pld_name.txt ())
                lds
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration it td);
    }
  in
  List.iter
    (fun file ->
      match file.str with
      | Some str -> it.structure it str
      | None -> ( match file.sg with Some sg -> it.signature it sg | None -> ()))
    files;
  labels

(* Per-file module aliases ([module Obs = Revkb_obs.Obs]) and opens
   ([open Logic]), used to expand usage paths. *)
let collect_aliases_opens str =
  let aliases = Hashtbl.create 8 in
  let opens = ref [] in
  let add_open me =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> (
        match flatten_opt txt with
        | [] -> ()
        | path -> opens := path :: !opens)
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      module_binding =
        (fun it mb ->
          (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
          | Some name, Pmod_ident { txt; _ } ->
              Hashtbl.replace aliases name (flatten_opt txt)
          | _ -> ());
          Ast_iterator.default_iterator.module_binding it mb);
      open_description =
        (fun it od ->
          (match flatten_opt od.popen_expr.txt with
          | [] -> ()
          | path -> opens := path :: !opens);
          Ast_iterator.default_iterator.open_description it od);
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_open (od, _) -> add_open od.popen_expr
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_open od -> add_open od.popen_expr
          | _ -> ());
          Ast_iterator.default_iterator.structure_item it si);
    }
  in
  it.structure it str;
  (aliases, !opens)

let add_usage usage key file =
  if key <> "" then begin
    let tbl =
      match Hashtbl.find_opt usage key with
      | Some t -> t
      | None ->
          let t = Hashtbl.create 4 in
          Hashtbl.add usage key t;
          t
    in
    Hashtbl.replace tbl file ()
  end

let collect_usages usage file =
  match file.str with
  | None -> ()
  | Some str ->
      let aliases, opens = collect_aliases_opens str in
      let record path =
        let path =
          match path with
          | first :: rest -> (
              match Hashtbl.find_opt aliases first with
              | Some target -> target @ rest
              | None -> path)
          | [] -> []
        in
        (match last2 path with
        | [ _; _ ] as l -> add_usage usage (dotted l) file.path
        | _ -> ());
        (match List.rev path with
        | c :: b :: a :: _ -> add_usage usage (dotted [ a; b; c ]) file.path
        | _ -> ());
        (* A bare reference resolves through any open in scope: record
           it against each opened module's last component. *)
        match path with
        | [ v ] ->
            List.iter
              (fun op ->
                match List.rev op with
                | m :: _ -> add_usage usage (dotted [ m; v ]) file.path
                | [] -> ())
              opens
        | _ -> ()
      in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.pexp_desc with
              | Pexp_ident { txt; _ } -> record (flatten_opt txt)
              | Pexp_field (_, { txt; _ }) -> record (flatten_opt txt)
              | Pexp_setfield (_, { txt; _ }, _) -> record (flatten_opt txt)
              | Pexp_record (fields, _) ->
                  List.iter
                    (fun ({ Location.txt; _ }, _) -> record (flatten_opt txt))
                    fields
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
          pat =
            (fun it p ->
              (match p.ppat_desc with
              | Ppat_record (fields, _) ->
                  List.iter
                    (fun ({ Location.txt; _ }, _) -> record (flatten_opt txt))
                    fields
              | _ -> ());
              Ast_iterator.default_iterator.pat it p);
        }
      in
      it.structure it str

(* -- R3 collection ---------------------------------------------------------- *)

let obs_call e =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> (
      match List.rev (ident_path f) with
      | "counter" :: "Obs" :: _ -> Some (`Counter, args)
      | "hist" :: "Obs" :: _ -> Some (`Hist, args)
      | "with_span" :: "Obs" :: _ -> Some (`Span, args)
      | _ -> None)
  | _ -> None

let collect_regs file =
  match file.str with
  | None -> []
  | Some str ->
      let regs = ref [] in
      let add kind name line var =
        regs :=
          { r_kind = kind; r_name = name; r_var = var; r_file = file.path;
            r_line = line }
          :: !regs
      in
      let seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      let check_bound vb =
        match obs_call vb.pvb_expr with
        | Some (((`Counter | `Hist) as kind), args) -> (
            match string_arg args with
            | Some (name, loc) ->
                Hashtbl.replace seen vb.pvb_expr.pexp_loc.loc_start.pos_cnum ();
                add
                  (match kind with `Counter -> `Counter | `Hist -> `Hist)
                  name (line_of loc) (pat_name vb.pvb_pat)
            | None -> ())
        | _ -> ()
      in
      let it =
        {
          Ast_iterator.default_iterator with
          value_binding =
            (fun it vb ->
              check_bound vb;
              Ast_iterator.default_iterator.value_binding it vb);
          expr =
            (fun it e ->
              (match obs_call e with
              | Some (((`Counter | `Hist) as kind), args)
                when not (Hashtbl.mem seen e.pexp_loc.loc_start.pos_cnum) -> (
                  match string_arg args with
                  | Some (name, loc) ->
                      add
                        (match kind with `Counter -> `Counter | `Hist -> `Hist)
                        name (line_of loc) None
                  | None -> ())
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
        }
      in
      it.structure it str;
      List.rev !regs

let prepare ~lint ~usage =
  let all = lint @ usage in
  let usage_tbl = Hashtbl.create 1024 in
  List.iter (collect_usages usage_tbl) all;
  {
    g_lint = lint;
    g_consts = collect_consts all;
    g_mutable_labels = collect_mutable_labels all;
    g_regs = List.concat_map collect_regs lint;
    g_usage = usage_tbl;
  }

(* -- finding construction with allowlist suppression ------------------------ *)

let finding file out rule severity ~line ~col ~key message =
  if not (Allowlist.suppresses file.allow rule line) then
    out :=
      { F.rule; severity; file = file.path; line; col; key; message } :: !out

(* -- R1: domain-safety ------------------------------------------------------ *)

let mutable_ctors =
  [
    "ref"; "Hashtbl.create"; "Buffer.create"; "Queue.create"; "Stack.create";
    "Weak.create"; "Array.make"; "Array.init"; "Array.create_float";
    "Array.of_list"; "Array.copy"; "Array.append"; "Array.concat";
    "Array.sub"; "Array.map"; "Array.mapi"; "Bytes.create"; "Bytes.make";
    "Bytes.init"; "Bytes.of_string";
  ]

let safe_ctors =
  [
    "Atomic.make"; "Mutex.create"; "Condition.create"; "Semaphore.make";
    "Domain.DLS.new_key"; "DLS.new_key"; "Lazy.from_fun"; "Lazy.from_val";
  ]

(* What top-level mutable state does [e] evaluate to, if any?  Returns a
   short description of the constructor. *)
let rec creates_mutable labels e : string option =
  match e.pexp_desc with
  | Pexp_apply (f, _args) -> (
      let p = dotted (last2 (ident_path f)) in
      if List.mem p safe_ctors then None
      else if List.mem p mutable_ctors then Some p
      else None)
  | Pexp_record (fields, _) ->
      List.find_map
        (fun ({ Location.txt; _ }, _) ->
          match flatten_opt txt with
          | [] -> None
          | path ->
              let label = List.hd (List.rev path) in
              if Hashtbl.mem labels label then
                Some (Printf.sprintf "record with mutable field '%s'" label)
              else None)
        fields
  | Pexp_array (_ :: _) -> Some "array literal"
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) ->
      creates_mutable labels e
  | Pexp_let (_, _, body) -> creates_mutable labels body
  | Pexp_sequence (_, e) -> creates_mutable labels e
  | Pexp_ifthenelse (_, t, e) -> (
      match creates_mutable labels t with
      | Some d -> Some d
      | None -> Option.bind e (creates_mutable labels))
  | Pexp_tuple es -> List.find_map (creates_mutable labels) es
  | Pexp_match (_, cases) ->
      List.find_map (fun c -> creates_mutable labels c.pc_rhs) cases
  | _ -> None

let check_r1 g file out =
  match file.str with
  | None -> ()
  | Some str ->
      iter_structure_values str (fun vb ->
          match creates_mutable g.g_mutable_labels vb.pvb_expr with
          | None -> ()
          | Some ctor ->
              let name =
                match pat_name vb.pvb_pat with Some n -> n | None -> "_"
              in
              finding file out F.R1 F.Error
                ~line:(line_of vb.pvb_loc) ~col:(col_of vb.pvb_loc) ~key:name
                (Printf.sprintf
                   "module-level mutable state '%s' (%s) has no \
                    Atomic/Mutex/Domain.DLS guard; pool tasks touch it from \
                    every domain — guard it or justify with (* lint: \
                    domain-safe <reason> *)"
                   name ctor))

(* -- R2: shift-overflow ----------------------------------------------------- *)

let max_shift = Sys.int_size - 2 (* 61 on 64-bit: keeps 1 lsl k positive *)

(* Upper-bound evaluation under scoped facts: [facts] maps a variable to
   [Some b] (known [v <= b]) or [None] (dominating check seen, bound not
   statically evaluable). *)
let rec upper_eval g locals facts e : int option =
  let ue = upper_eval g locals facts in
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, None)) -> int_of_string_opt s
  | Pexp_constraint (e, _) -> ue e
  | Pexp_ident { txt; _ } -> (
      match flatten_opt txt with
      | [ x ] when List.mem_assoc x facts -> List.assoc x facts
      | _ -> const_eval g.g_consts locals e)
  | Pexp_apply (f, [ (Nolabel, a); (Nolabel, b) ]) -> (
      match ident_path f with
      | [ "+" ] -> (
          match (ue a, ue b) with Some x, Some y -> Some (x + y) | _ -> None)
      | [ "-" ] -> (
          (* upper(a - b) needs a lower bound on b; a nonneg literal or
             constant is its own lower bound, else give up. *)
          match (ue a, const_eval g.g_consts locals b) with
          | Some x, Some y when y >= 0 -> Some (x - y)
          | _ -> None)
      | [ "*" ] -> (
          match (ue a, ue b) with
          | Some x, Some y when x >= 0 && y >= 0 -> Some (x * y)
          | _ -> None)
      | [ "mod" ] -> (
          match const_eval g.g_consts locals b with
          | Some m when m > 0 -> Some (m - 1)
          | _ -> None)
      | [ "land" ] -> (
          match (ue a, ue b) with
          | Some x, Some y -> Some (min x y)
          | Some x, None -> Some x
          | None, Some y -> Some y
          | None, None -> None)
      | [ "min" ] -> (
          match (ue a, ue b) with
          | Some x, Some y -> Some (min x y)
          | Some x, None -> Some x
          | None, Some y -> Some y
          | None, None -> None)
      | [ "max" ] -> (
          match (ue a, ue b) with Some x, Some y -> Some (max x y) | _ -> None)
      | _ -> const_eval g.g_consts locals e)
  | _ -> const_eval g.g_consts locals e

(* Does evaluating [e] unconditionally raise? *)
let rec raises e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
      match List.rev (ident_path f) with
      | ("raise" | "raise_notrace" | "invalid_arg" | "failwith") :: _ -> true
      | _ -> false)
  | Pexp_assert
      { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ->
      true
  | Pexp_sequence (a, b) -> raises a || raises b
  | Pexp_let (_, _, b) -> raises b
  | _ -> false

let comparison e =
  match e.pexp_desc with
  | Pexp_apply (f, [ (Nolabel, a); (Nolabel, b) ]) -> (
      match ident_path f with
      | [ (("<" | "<=" | ">" | ">=" | "=" | "&&" | "||") as op) ] ->
          Some (op, a, b)
      | _ -> None)
  | _ -> None

let bare_var e =
  match ident_path e with [ x ] -> Some x | _ -> None

(* Facts [v <= bound] established when [cond] holds. *)
let rec facts_if_true g locals cond =
  let ue = upper_eval g locals [] in
  match comparison cond with
  | Some ("&&", a, b) -> facts_if_true g locals a @ facts_if_true g locals b
  | Some ("<=", a, b) -> (
      match bare_var a with Some v -> [ (v, ue b) ] | None -> [])
  | Some ("<", a, b) -> (
      match bare_var a with
      | Some v -> [ (v, Option.map (fun x -> x - 1) (ue b)) ]
      | None -> [])
  | Some ("=", a, b) -> (
      match (bare_var a, bare_var b) with
      | Some v, _ -> [ (v, ue b) ]
      | _, Some v -> [ (v, ue a) ]
      | _ -> [])
  | Some (">=", a, b) -> (
      match bare_var b with Some v -> [ (v, ue a) ] | None -> [])
  | Some (">", a, b) -> (
      match bare_var b with
      | Some v -> [ (v, Option.map (fun x -> x - 1) (ue a)) ]
      | None -> [])
  | _ -> []

(* Facts established when [cond] does NOT hold. *)
and facts_if_false g locals cond =
  let ue = upper_eval g locals [] in
  match comparison cond with
  | Some ("||", a, b) -> facts_if_false g locals a @ facts_if_false g locals b
  | Some (">", a, b) -> (
      match bare_var a with Some v -> [ (v, ue b) ] | None -> [])
  | Some (">=", a, b) -> (
      match bare_var a with
      | Some v -> [ (v, Option.map (fun x -> x - 1) (ue b)) ]
      | None -> [])
  | Some ("<", a, b) -> (
      match bare_var b with Some v -> [ (v, ue a) ] | None -> [])
  | Some ("<=", a, b) -> (
      match bare_var b with
      | Some v -> [ (v, Option.map (fun x -> x - 1) (ue a)) ]
      | None -> [])
  | _ -> []

(* Facts persisting after [e] was evaluated in sequence position: an
   assert, or an [if] whose taken branch raises. *)
let facts_after g locals e =
  match e.pexp_desc with
  | Pexp_assert cond -> facts_if_true g locals cond
  | Pexp_ifthenelse (cond, t, None) when raises t -> facts_if_false g locals cond
  | Pexp_ifthenelse (cond, t, Some els) ->
      (if raises t then facts_if_false g locals cond else [])
      @ if raises els then facts_if_true g locals cond else []
  | _ -> []

let check_r2 g file out =
  match file.str with
  | None -> ()
  | Some str ->
      let locals = Hashtbl.create 16 in
      (* File-local constants resolve unqualified: seed from the global
         table under this module's name. *)
      Hashtbl.iter
        (fun k v ->
          match String.split_on_char '.' k with
          | [ m; x ] when m = file.modname -> Hashtbl.replace locals x v
          | _ -> ())
        g.g_consts;
      let enclosing = ref "<toplevel>" in
      (* Custom walk threading scoped facts. *)
      let rec walk facts e =
        let check_shift op amount loc =
          let verdict =
            match const_eval g.g_consts locals amount with
            | Some k ->
                if k >= 0 && k <= max_shift then None
                else
                  Some
                    (Printf.sprintf "constant shift amount %d overflows (%s)" k
                       (if k > max_shift then
                          Printf.sprintf "max safe shift is %d" max_shift
                        else "negative"))
            | None -> (
                match upper_eval g locals facts amount with
                | Some u when u <= max_shift -> None
                | Some u ->
                    Some
                      (Printf.sprintf
                         "shift amount may reach %d (max safe shift is %d)" u
                         max_shift)
                | None -> (
                    match bare_var amount with
                    | Some v when List.mem_assoc v facts ->
                        None (* dominating check seen, bound unevaluable *)
                    | _ ->
                        Some
                          "shift amount has no static bound and no dominating \
                           check"))
          in
          match verdict with
          | None -> ()
          | Some why ->
              let amount_txt =
                (* lint: exn-ok rendering is best-effort; a Pprintast crash
                   on an exotic AST must not take down the whole report *)
                try Pprintast.string_of_expression amount with _ -> "?"
              in
              finding file out F.R2 F.Error ~line:(line_of loc)
                ~col:(col_of loc)
                ~key:(Printf.sprintf "%s:%s %s" !enclosing op amount_txt)
                (Printf.sprintf
                   "unbounded '%s %s': %s — [1 lsl 62] is min_int on 64-bit; \
                    assert the bound (n <= Sys.int_size - 2) or cite the \
                    dominating check with (* lint: shift-ok <reason> *)"
                   op amount_txt why)
        in
        match e.pexp_desc with
        | Pexp_apply (f, ([ (Nolabel, a); (Nolabel, b) ] as args)) -> (
            match ident_path f with
            | [ (("lsl" | "asr") as op) ] ->
                check_shift op b e.pexp_loc;
                List.iter (fun (_, a) -> walk facts a) args
            | _ ->
                walk facts f;
                walk facts a;
                walk facts b)
        | Pexp_sequence (a, b) ->
            walk facts a;
            walk (facts_after g locals a @ facts) b
        | Pexp_ifthenelse (cond, t, els) -> (
            walk facts cond;
            walk (facts_if_true g locals cond @ facts) t;
            match els with
            | Some els -> walk (facts_if_false g locals cond @ facts) els
            | None -> ())
        | Pexp_let (_, vbs, body) ->
            List.iter (fun vb -> walk facts vb.pvb_expr) vbs;
            let bound =
              List.concat_map
                (fun vb ->
                  match pat_name vb.pvb_pat with
                  | Some v -> (
                      match upper_eval g locals facts vb.pvb_expr with
                      | Some u -> [ (v, Some u) ]
                      | None -> [])
                  | None -> [])
                vbs
            in
            walk (bound @ facts) body
        | Pexp_for (pat, lo, hi, dir, body) -> (
            walk facts lo;
            walk facts hi;
            match (pat_name pat, dir) with
            | Some v, Upto ->
                walk ((v, upper_eval g locals facts hi) :: facts) body
            | Some v, Downto ->
                walk ((v, upper_eval g locals facts lo) :: facts) body
            | None, _ -> walk facts body)
        | Pexp_assert cond -> walk facts cond
        | Pexp_fun (_, default, _, body) ->
            Option.iter (walk facts) default;
            walk facts body
        | Pexp_function cases | Pexp_match (_, cases) | Pexp_try (_, cases) ->
            (match e.pexp_desc with
            | Pexp_match (scrut, _) | Pexp_try (scrut, _) -> walk facts scrut
            | _ -> ());
            List.iter
              (fun c ->
                Option.iter (walk facts) c.pc_guard;
                walk facts c.pc_rhs)
              cases
        | Pexp_apply (f, args) ->
            walk facts f;
            List.iter (fun (_, a) -> walk facts a) args
        | Pexp_tuple es | Pexp_array es -> List.iter (walk facts) es
        | Pexp_construct (_, arg) | Pexp_variant (_, arg) ->
            Option.iter (walk facts) arg
        | Pexp_record (fields, base) ->
            List.iter (fun (_, e) -> walk facts e) fields;
            Option.iter (walk facts) base
        | Pexp_field (e, _) -> walk facts e
        | Pexp_setfield (a, _, b) ->
            walk facts a;
            walk facts b
        | Pexp_while (c, b) ->
            walk facts c;
            walk facts b
        | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> walk facts e
        | Pexp_open (_, e) | Pexp_lazy e | Pexp_newtype (_, e) -> walk facts e
        | Pexp_letmodule (_, _, e) -> walk facts e
        | Pexp_send (e, _) -> walk facts e
        | Pexp_setinstvar (_, e) -> walk facts e
        | _ -> ()
      in
      iter_structure_values str (fun vb ->
          (match pat_name vb.pvb_pat with
          | Some n -> enclosing := n
          | None -> enclosing := "<toplevel>");
          walk [] vb.pvb_expr)

(* -- R3: obs-contract (per-file half) --------------------------------------- *)

let obs_namespaces =
  [
    "sat"; "sem"; "pool"; "enum"; "dist"; "check"; "models"; "verify"; "bdd";
    "gc"; "prof"; "serve";
  ]

let valid_segment s =
  s <> ""
  && String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
       s

let check_obs_name file out kind name loc =
  let segs = String.split_on_char '.' name in
  let what =
    match kind with
    | `Counter -> "counter"
    | `Hist -> "histogram"
    | `Span -> "span"
  in
  if List.length segs < 2 || not (List.for_all valid_segment segs) then
    finding file out F.R3 F.Error ~line:(line_of loc) ~col:(col_of loc)
      ~key:("shape:" ^ name)
      (Printf.sprintf
         "obs %s name %S is not dotted lowercase ('namespace.metric')" what
         name)
  else
    let ns = List.hd segs in
    if not (List.mem ns obs_namespaces) then
      finding file out F.R3 F.Error ~line:(line_of loc) ~col:(col_of loc)
        ~key:("namespace:" ^ name)
        (Printf.sprintf
           "obs %s name %S uses unregistered namespace '%s.' (registered: %s)"
           what name ns
           (String.concat ", " (List.map (fun s -> s ^ ".") obs_namespaces)))

let check_r3_file file out =
  match file.str with
  | None -> ()
  | Some str ->
      (* Namespace shape for every metric-name literal. *)
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match obs_call e with
              | Some (kind, args) -> (
                  match string_arg args with
                  | Some (name, loc) -> check_obs_name file out kind name loc
                  | None -> ())
              | None -> ());
              Ast_iterator.default_iterator.expr it e);
        }
      in
      it.structure it str;
      (* Counters registered into a variable that is never touched again
         in this file: dead bookkeeping. *)
      let uses = Hashtbl.create 64 in
      let it2 =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.pexp_desc with
              | Pexp_ident { txt = Lident x; _ } ->
                  Hashtbl.replace uses x
                    (1 + Option.value ~default:0 (Hashtbl.find_opt uses x))
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
        }
      in
      it2.structure it2 str;
      List.iter
        (fun r ->
          if r.r_file = file.path && r.r_kind = `Counter then
            match r.r_var with
            | Some v when not (Hashtbl.mem uses v) ->
                finding file out F.R3 F.Warning ~line:r.r_line ~col:0
                  ~key:("unbumped:" ^ r.r_name)
                  (Printf.sprintf
                     "counter %S is registered into '%s' but never bumped or \
                      read in this file"
                     r.r_name v)
            | _ -> ())
        (collect_regs file)

(* -- R4: exception hygiene (lib/ only) -------------------------------------- *)

let catch_all_case c =
  c.pc_guard = None
  &&
  match c.pc_lhs.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | _ -> false

let check_r4 file out =
  if String.length file.path >= 4 && String.sub file.path 0 4 = "lib/" then
    match file.str with
    | None -> ()
    | Some str ->
        let enclosing = ref "<toplevel>" in
        let it =
          {
            Ast_iterator.default_iterator with
            value_binding =
              (fun it vb ->
                let saved = !enclosing in
                (match pat_name vb.pvb_pat with
                | Some n -> enclosing := n
                | None -> ());
                Ast_iterator.default_iterator.value_binding it vb;
                enclosing := saved);
            expr =
              (fun it e ->
                (match e.pexp_desc with
                | Pexp_try (_, cases) ->
                    List.iter
                      (fun c ->
                        if catch_all_case c then
                          finding file out F.R4 F.Error
                            ~line:(line_of c.pc_lhs.ppat_loc)
                            ~col:(col_of c.pc_lhs.ppat_loc)
                            ~key:("catch-all:" ^ !enclosing)
                            "catch-all exception handler (swallows \
                             Stack_overflow, Assert_failure, ...); match the \
                             exceptions this code can actually raise")
                      cases
                | Pexp_apply (f, _)
                  when List.rev (ident_path f) = [ "failwith" ]
                       || (match List.rev (ident_path f) with
                          | "failwith" :: _ -> true
                          | _ -> false) ->
                    finding file out F.R4 F.Error ~line:(line_of e.pexp_loc)
                      ~col:(col_of e.pexp_loc)
                      ~key:("failwith:" ^ !enclosing)
                      "bare Failure via failwith; raise a declared exception \
                       with context fields instead"
                | Pexp_construct ({ txt; _ }, _)
                  when List.rev (flatten_opt txt) = [ "Failure" ] ->
                    finding file out F.R4 F.Error ~line:(line_of e.pexp_loc)
                      ~col:(col_of e.pexp_loc)
                      ~key:("failure:" ^ !enclosing)
                      "bare Failure constructor; raise a declared exception \
                       with context fields instead"
                | _ -> ());
                Ast_iterator.default_iterator.expr it e);
          }
        in
        it.structure it str

(* -- per-file driver -------------------------------------------------------- *)

let check_file g file =
  let out = ref [] in
  check_r1 g file out;
  check_r2 g file out;
  check_r3_file file out;
  check_r4 file out;
  List.rev !out

(* -- R3 global half: duplicate registrations -------------------------------- *)

let check_r3_global g out_by_file =
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let key =
        (match r.r_kind with `Counter -> "counter:" | `Hist -> "hist:")
        ^ r.r_name
      in
      Hashtbl.replace by_name key
        (r :: Option.value ~default:[] (Hashtbl.find_opt by_name key)))
    g.g_regs;
  Hashtbl.iter
    (fun _ regs ->
      match regs with
      | _ :: _ :: _ ->
          List.iter
            (fun r ->
              match List.find_opt (fun f -> f.path = r.r_file) g.g_lint with
              | None -> ()
              | Some file ->
                  let others =
                    List.filter_map
                      (fun o ->
                        if o == r then None
                        else Some (Printf.sprintf "%s:%d" o.r_file o.r_line))
                      regs
                  in
                  finding file out_by_file F.R3 F.Warning ~line:r.r_line ~col:0
                    ~key:("dup:" ^ r.r_name)
                    (Printf.sprintf
                       "metric %S is also registered at %s; intentional \
                        sharing needs (* lint: obs-ok <reason> *) at every \
                        site"
                       r.r_name
                       (String.concat ", " others)))
            regs
      | _ -> ())
    by_name

(* -- R5: interface completeness --------------------------------------------- *)

let plain_value_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | '_' -> true | _ -> false)
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
         | _ -> false)
       s

let sig_values sg =
  (* (submodule path, value name, line); functor bodies skipped. *)
  let out = ref [] in
  let rec go_sig path sg = List.iter (go_item path) sg
  and go_item path it =
    match it.psig_desc with
    | Psig_value vd ->
        if plain_value_name vd.pval_name.txt then
          out := (List.rev path, vd.pval_name.txt, line_of vd.pval_loc) :: !out
    | Psig_module md -> (
        match md.pmd_name.txt with
        | Some name -> go_mty (name :: path) md.pmd_type
        | None -> ())
    | _ -> ()
  and go_mty path mty =
    match mty.pmty_desc with
    | Pmty_signature sg -> go_sig path sg
    | _ -> ()
  in
  go_sig [] sg;
  List.rev !out

(* Files under test/ feed the usage index but are not real callers: a
   value only they reach is test-only API. *)
let is_test_path p = String.starts_with ~prefix:"test/" p

(* Where [key] is referenced from outside [self_paths]: [`Real] when
   some non-test file names it, [`Tests] when only test/ files do. *)
let reach g ~self_paths key =
  match Hashtbl.find_opt g.g_usage key with
  | None -> `None
  | Some files ->
      Hashtbl.fold
        (fun f () acc ->
          if List.mem f self_paths then acc
          else if not (is_test_path f) then `Real
          else if acc = `None then `Tests
          else acc)
        files `None

let check_r5 g out_by_file =
  let mls, mlis =
    List.partition (fun f -> Filename.check_suffix f.path ".ml") g.g_lint
  in
  let mli_paths = List.map (fun f -> f.path) mlis in
  (* Every lib/**/*.ml has an .mli. *)
  List.iter
    (fun f ->
      if String.length f.path >= 4 && String.sub f.path 0 4 = "lib/" then begin
        let expected = f.path ^ "i" in
        if not (List.mem expected mli_paths) then
          finding f out_by_file F.R5 F.Error ~line:0 ~col:0
            ~key:("missing-mli:" ^ f.path)
            (Printf.sprintf
               "%s has no interface file %s: its whole namespace leaks" f.path
               expected)
      end)
    mls;
  (* Every .mli value is reachable from outside its module. *)
  List.iter
    (fun f ->
      match f.sg with
      | None -> ()
      | Some sg ->
          let self_paths = [ f.path; Filename.chop_suffix f.path "i" ] in
          List.iter
            (fun (subpath, name, line) ->
              let keys =
                match subpath with
                | [] -> [ f.modname ^ "." ^ name ]
                | sub ->
                    [
                      dotted (sub @ [ name ]);
                      dotted ((f.modname :: sub) @ [ name ]);
                    ]
              in
              let reached = List.map (reach g ~self_paths) keys in
              let qualified = dotted ((f.modname :: subpath) @ [ name ]) in
              let report kind message =
                finding f out_by_file F.R5 F.Warning ~line ~col:0
                  ~key:(kind ^ ":" ^ dotted (subpath @ [ name ]))
                  (Printf.sprintf message qualified)
              in
              if List.mem `Real reached then ()
              else if List.mem `Tests reached then
                report "test-only"
                  "val %s is referenced only from test/: delete it with its \
                   tests, move it to test/oracle, hide it, or name the test \
                   that needs it with (* lint: iface-ok <reason> *)"
              else
                report "unreachable"
                  "val %s is declared here but never referenced outside its \
                   module anywhere in the scanned tree (incl. tests); dead \
                   API or missing test coverage")
            (sig_values sg))
    mlis

let check_global g =
  let out = ref [] in
  check_r3_global g out;
  check_r5 g out;
  List.rev !out

(* -- R0: lint hygiene ------------------------------------------------------- *)

(* Exemptions that suppressed nothing.  Only meaningful once every other
   pass over [file] has run, since suppression is what marks an entry
   used. *)
let stale_findings file =
  List.filter_map
    (fun (e : Allowlist.entry) ->
      if e.rule = None || e.reason = "" || e.used then None
      else
        Some
          {
            F.rule = F.R0;
            severity = F.Warning;
            file = file.path;
            line = e.line;
            col = 0;
            key = "stale:" ^ e.tag;
            message =
              Printf.sprintf
                "allowlist comment 'lint: %s' suppresses no finding; remove \
                 it"
                e.tag;
          })
    file.allow

let parse_findings file =
  let out = ref [] in
  (match file.parse_error with
  | Some (line, msg) ->
      out :=
        {
          F.rule = F.R0;
          severity = F.Error;
          file = file.path;
          line;
          col = 0;
          key = "parse-error";
          message = Printf.sprintf "file does not parse: %s" msg;
        }
        :: !out
  | None -> ());
  List.iter
    (fun (e : Allowlist.entry) ->
      let bad reason_key msg =
        out :=
          {
            F.rule = F.R0;
            severity = F.Warning;
            file = file.path;
            line = e.line;
            col = 0;
            key = reason_key;
            message = msg;
          }
          :: !out
      in
      match e.rule with
      | None ->
          bad
            ("unknown-tag:" ^ e.tag)
            (Printf.sprintf
               "allowlist comment has unknown tag '%s' (known: domain-safe, \
                shift-ok, obs-ok, exn-ok, iface-ok)"
               e.tag)
      | Some _ when e.reason = "" ->
          bad ("no-reason:" ^ e.tag)
            (Printf.sprintf
               "allowlist comment 'lint: %s' carries no justification; every \
                exemption must say why"
               e.tag)
      | Some _ -> ())
    file.allow;
  List.rev !out
