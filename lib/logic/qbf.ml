type t =
  | Prop of Formula.t
  | Forall of Var.t list * t
  | Exists of Var.t list * t
  | Conj of t list

let prop f = Prop f
let forall xs t = if xs = [] then t else Forall (xs, t)
let exists xs t = if xs = [] then t else Exists (xs, t)

let conj ts =
  match ts with [] -> Prop Formula.top | [ t ] -> t | ts -> Conj ts

let rec free_vars = function
  | Prop f -> Formula.vars f
  | Forall (xs, t) | Exists (xs, t) ->
      Var.Set.diff (free_vars t) (Var.set_of_list xs)
  | Conj ts ->
      List.fold_left
        (fun acc t -> Var.Set.union acc (free_vars t))
        Var.Set.empty ts

(* All boolean assignments to a block of letters, as constant maps. *)
let assignments xs =
  let n = List.length xs in
  if n > 20 then invalid_arg "Qbf.expand: quantifier block too wide";
  List.init (1 lsl n) (fun code ->
      List.fold_left
        (* lint: shift-ok i < n <= 20 (block width guarded above) *)
        (fun (m, i) x -> (Var.Map.add x (code land (1 lsl i) <> 0) m, i + 1))
        (Var.Map.empty, 0) xs
      |> fst)

let rec expand = function
  | Prop f -> f
  | Conj ts -> Formula.and_ (List.map expand ts)
  | Forall (xs, t) ->
      let body = expand t in
      Formula.and_
        (List.map (fun m -> Formula.assign_vars m body) (assignments xs))
  | Exists (xs, t) ->
      let body = expand t in
      Formula.or_
        (List.map (fun m -> Formula.assign_vars m body) (assignments xs))
