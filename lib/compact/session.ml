open Logic
module Op = Revision.Operator

type t = {
  op : Op.t;
  base : Theory.t;
  mutable log : Formula.t list; (* newest first *)
  mutable cached : Revision.Result.t option;
}

let create ~op base = { op; base; log = []; cached = None }
let op s = s.op
let log s = List.rev s.log

let is_set_valued = function
  | Op.Gfuv | Op.Nebel _ -> true
  | _ -> false

let revise s p =
  if is_set_valued s.op && s.log <> [] then
    invalid_arg
      "Session.revise: GFUV/Nebel yield theory sets; only one revision is \
       supported";
  s.log <- p :: s.log;
  s.cached <- None

let alphabet s =
  Var.Set.elements
    (List.fold_left
       (fun acc p -> Var.Set.union acc (Formula.vars p))
       (Theory.vars s.base) s.log)

let result s =
  match s.cached with
  | Some r -> r
  | None ->
      let r =
        match (is_set_valued s.op, log s) with
        | true, [] ->
            let a = alphabet s in
            Revision.Result.make a (Models.enumerate a (Theory.conj s.base))
        | true, [ p ] -> Op.revise s.op s.base p
        | true, _ -> assert false (* prevented by [revise] *)
        | false, ps -> Revision.Iterate.revise_seq_on s.op (alphabet s) s.base ps
      in
      s.cached <- Some r;
      r

let ask s q = Revision.Result.entails (result s) q
let model_check s m = Revision.Result.model_check (result s) m

let compile s =
  let t = Theory.conj s.base in
  let ps = log s in
  match s.op with
  | Op.Gfuv | Op.Nebel _ ->
      invalid_arg
        "Session.compile: GFUV/Nebel admit no compact representation \
         (Theorem 3.1)"
  | Op.Widtio -> Theory.conj (Revision.Iterate.widtio_seq s.base ps)
  | o -> Construct.final t (Construct.iterate (Op.model_op o) (Kb.make t) ps)
