let intersection_closure models =
  let module S = Set.Make (struct
    type t = Var.Set.t

    let compare = Var.Set.compare
  end) in
  let rec grow s =
    let extra =
      S.fold
        (fun a acc ->
          S.fold
            (fun b acc ->
              let i = Var.Set.inter a b in
              if S.mem i s then acc else S.add i acc)
            s acc)
        s S.empty
    in
    if S.is_empty extra then s else grow (S.union s extra)
  in
  S.elements (grow (S.of_list models))

let lub_models alphabet f =
  intersection_closure (Models.enumerate alphabet f)

let lub alphabet f =
  let closure = lub_models alphabet f in
  let in_closure m = List.exists (Var.Set.equal m) closure in
  let clauses = ref [] in
  List.iter
    (fun m ->
      if not (in_closure m) then begin
        (* closure models above m (letter-wise) *)
        let above = List.filter (fun c -> Var.Set.subset m c) closure in
        let body =
          List.map (fun x -> (false, x)) (Var.Set.elements m)
        in
        let clause =
          match above with
          | [] -> body (* no model above m: all-negative clause *)
          | _ ->
              let meet =
                List.fold_left Var.Set.inter (List.hd above) (List.tl above)
              in
              (* meet is in the closure and strictly contains m *)
              let head = Var.Set.choose (Var.Set.diff meet m) in
              (true, head) :: body
        in
        clauses := List.sort_uniq compare clause :: !clauses
      end)
    (Interp.subsets alphabet);
  let clauses = List.sort_uniq compare !clauses in
  (* Greedy redundancy elimination: drop clauses whose removal keeps the
     model set equal to the closure. *)
  let models_of cnf =
    List.filter
      (fun m ->
        List.for_all
          (fun c -> List.exists (fun (s, x) -> Var.Set.mem x m = s) c)
          cnf)
      (Interp.subsets alphabet)
  in
  let closure_sorted = List.sort_uniq Var.Set.compare closure in
  let equals_closure cnf =
    let ms = models_of cnf in
    List.length ms = List.length closure_sorted
    && List.for_all2 Var.Set.equal ms closure_sorted
  in
  let rec prune kept = function
    | [] -> List.rev kept
    | c :: rest ->
        if equals_closure (List.rev_append kept rest) then prune kept rest
        else prune (c :: kept) rest
  in
  prune [] clauses

let lub_size alphabet f =
  List.fold_left (fun acc c -> acc + List.length c) 0 (lub alphabet f)
