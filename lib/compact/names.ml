open Logic

let copy ?(avoid = Var.Set.empty) ~suffix xs =
  let forbidden = Var.Set.union avoid (Var.set_of_list xs) in
  let rec attempt suffix =
    let ys = List.map (Var.copy_of ~suffix) xs in
    let ok =
      List.for_all (fun y -> not (Var.Set.mem y forbidden)) ys
      && List.length (List.sort_uniq Var.compare ys) = List.length ys
    in
    if ok then ys else attempt (suffix ^ "_")
  in
  attempt suffix

let free ~alphabet made q =
  let vq = Formula.vars q in
  match Var.Set.elements (Var.Set.diff (Var.Set.inter vq made) alphabet) with
  | [] -> q
  | xs ->
      Formula.rename
        (List.combine xs (copy ~avoid:(Var.Set.union made vq) ~suffix:"_q" xs))
        q
