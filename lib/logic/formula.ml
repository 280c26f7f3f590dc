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

(* Precedence levels: 0 iff/xor, 1 imp, 2 or, 3 and, 4 unary.  A
   connective is parenthesized when its context binds tighter. *)
let level = function
  | Iff _ | Xor _ -> 0
  | Imp _ -> 1
  | Or _ -> 2
  | And _ -> 3
  | True | False | Var _ | Not _ -> 4

(* Written straight into one buffer, with no Format pass: the text of a
   served revision costs a linear copy of the formula. *)
let rec print b prec f =
  let paren = prec > level f in
  if paren then Buffer.add_char b '(';
  (match f with
  | True -> Buffer.add_string b "true"
  | False -> Buffer.add_string b "false"
  | Var x -> Buffer.add_string b (Var.name x)
  | Not g ->
      Buffer.add_char b '~';
      print b 4 g
  | And gs -> print_list b " & " 4 gs
  | Or gs -> print_list b " | " 3 gs
  | Imp (x, y) -> print_pair b 2 x " -> " 1 y
  | Iff (x, y) -> print_pair b 1 x " == " 1 y
  | Xor (x, y) -> print_pair b 1 x " != " 1 y);
  if paren then Buffer.add_char b ')'

and print_list b sep prec = function
  | [] -> ()
  | g :: gs ->
      print b prec g;
      List.iter
        (fun g ->
          Buffer.add_string b sep;
          print b prec g)
        gs

and print_pair b px x sep py y =
  print b px x;
  Buffer.add_string b sep;
  print b py y

let to_string f =
  let b = Buffer.create 64 in
  print b 0 f;
  Buffer.contents b

let pp ppf f = Format.pp_print_string ppf (to_string f)

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

