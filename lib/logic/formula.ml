type t =
  | True
  | False
  | Var of Var.t
  | Not of t
  | And of t list
  | Or of t list
  | Imp of t * t
  | Iff of t * t
  | Xor of t * t

let top = True
let bot = False
let var x = Var x
let v s = Var (Var.named s)

let not_ = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

let and_ fs =
  let rec gather acc = function
    | [] -> Some (List.rev acc)
    | True :: rest -> gather acc rest
    | False :: _ -> None
    | And gs :: rest -> gather acc (gs @ rest)
    | f :: rest -> gather (f :: acc) rest
  in
  match gather [] fs with
  | None -> False
  | Some [] -> True
  | Some [ f ] -> f
  | Some fs -> And fs

let or_ fs =
  let rec gather acc = function
    | [] -> Some (List.rev acc)
    | False :: rest -> gather acc rest
    | True :: _ -> None
    | Or gs :: rest -> gather acc (gs @ rest)
    | f :: rest -> gather (f :: acc) rest
  in
  match gather [] fs with
  | None -> True
  | Some [] -> False
  | Some [ f ] -> f
  | Some fs -> Or fs

let imp a b =
  match (a, b) with
  | True, b -> b
  | False, _ -> True
  | _, True -> True
  | a, False -> not_ a
  | a, b -> Imp (a, b)

let iff a b =
  match (a, b) with
  | True, b -> b
  | a, True -> a
  | False, b -> not_ b
  | a, False -> not_ a
  | a, b -> Iff (a, b)

let xor a b =
  match (a, b) with
  | False, b -> b
  | a, False -> a
  | True, b -> not_ b
  | a, True -> not_ a
  | a, b -> Xor (a, b)

let lit sign x = if sign then Var x else Not (Var x)
let conj2 a b = and_ [ a; b ]
let disj2 a b = or_ [ a; b ]
let equal = ( = )
let compare = Stdlib.compare

let rec vars = function
  | True | False -> Var.Set.empty
  | Var x -> Var.Set.singleton x
  | Not f -> vars f
  | And fs | Or fs ->
      List.fold_left (fun acc f -> Var.Set.union acc (vars f)) Var.Set.empty fs
  | Imp (a, b) | Iff (a, b) | Xor (a, b) -> Var.Set.union (vars a) (vars b)

let rec size = function
  | True | False -> 0
  | Var _ -> 1
  | Not f -> size f
  | And fs | Or fs -> List.fold_left (fun acc f -> acc + size f) 0 fs
  | Imp (a, b) | Iff (a, b) | Xor (a, b) -> size a + size b

let rec node_count = function
  | True | False | Var _ -> 1
  | Not f -> 1 + node_count f
  | And fs | Or fs -> List.fold_left (fun acc f -> acc + node_count f) 1 fs
  | Imp (a, b) | Iff (a, b) | Xor (a, b) ->
      1 + node_count a + node_count b

let rec substitute f = function
  | True -> True
  | False -> False
  | Var x -> ( match f x with Some g -> g | None -> Var x)
  | Not g -> not_ (substitute f g)
  | And gs -> and_ (List.map (substitute f) gs)
  | Or gs -> or_ (List.map (substitute f) gs)
  | Imp (a, b) -> imp (substitute f a) (substitute f b)
  | Iff (a, b) -> iff (substitute f a) (substitute f b)
  | Xor (a, b) -> xor (substitute f a) (substitute f b)

let subst_map m = substitute (fun x -> Var.Map.find_opt x m)

let rename pairs =
  let m =
    List.fold_left (fun m (x, y) -> Var.Map.add x (Var y) m) Var.Map.empty
      pairs
  in
  subst_map m

let negate_vars h =
  substitute (fun x -> if Var.Set.mem x h then Some (Not (Var x)) else None)

let assign_vars m =
  substitute (fun x ->
      match Var.Map.find_opt x m with
      | Some true -> Some True
      | Some false -> Some False
      | None -> None)

let rec eval env = function
  | True -> true
  | False -> false
  | Var x -> env x
  | Not f -> not (eval env f)
  | And fs -> List.for_all (eval env) fs
  | Or fs -> List.exists (eval env) fs
  | Imp (a, b) -> (not (eval env a)) || eval env b
  | Iff (a, b) -> eval env a = eval env b
  | Xor (a, b) -> eval env a <> eval env b

(* -- printing ----------------------------------------------------------- *)

(* Precedence levels: 0 iff/xor, 1 imp, 2 or, 3 and, 4 unary. *)
let rec pp_prec prec ppf f =
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

let pp ppf f = pp_prec 0 ppf f
let to_string f = Format.asprintf "%a" pp f

let rec simplify f =
  match f with
  | True | False | Var _ -> f
  | Not g -> not_ (simplify g)
  | And gs ->
      let gs = List.map simplify gs in
      let gs = List.sort_uniq compare gs in
      if List.exists (fun g -> List.mem (not_ g) gs) gs then False
      else and_ gs
  | Or gs ->
      let gs = List.map simplify gs in
      let gs = List.sort_uniq compare gs in
      if List.exists (fun g -> List.mem (not_ g) gs) gs then True
      else or_ gs
  | Imp (a, b) ->
      let a = simplify a and b = simplify b in
      if equal a b then True else imp a b
  | Iff (a, b) ->
      let a = simplify a and b = simplify b in
      if equal a b then True else iff a b
  | Xor (a, b) ->
      let a = simplify a and b = simplify b in
      if equal a b then False else xor a b

