open Logic

let widtio_seq t ps =
  List.fold_left (fun t p -> Formula_based.widtio t p) t ps

let revise_seq_on op alphabet t ps =
  match op with
  | Operator.Gfuv | Operator.Nebel _ ->
      invalid_arg "Iterate.revise_seq: GFUV/Nebel yield theory sets"
  | Operator.Widtio ->
      let t' = widtio_seq t ps in
      Result.make alphabet (Models.enumerate alphabet (Theory.conj t'))
  | op ->
      let mop = Operator.model_op op in
      let init = Models.enumerate alphabet (Theory.conj t) in
      let final =
        List.fold_left
          (fun t_models p ->
            let p_models = Models.enumerate alphabet p in
            Model_based.select mop t_models p_models)
          init ps
      in
      Result.make alphabet final

let revise_seq op t ps =
  let alphabet =
    Var.Set.elements
      (List.fold_left
         (fun acc p -> Var.Set.union acc (Formula.vars p))
         (Theory.vars t) ps)
  in
  revise_seq_on op alphabet t ps
