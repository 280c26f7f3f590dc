open Logic

type occ = { pos : bool; neg : bool }

let occurrences f =
  let acc = ref Var.Map.empty in
  let record sign x =
    let cur =
      Option.value ~default:{ pos = false; neg = false }
        (Var.Map.find_opt x !acc)
    in
    let cur = if sign then { cur with pos = true } else { cur with neg = true } in
    acc := Var.Map.add x cur !acc
  in
  (* [sign = true] for an even number of enclosing negations. *)
  let rec go sign (f : Formula.t) =
    match f with
    | True | False -> ()
    | Var x -> record sign x
    | Not g -> go (not sign) g
    | And gs | Or gs -> List.iter (go sign) gs
    | Imp (a, b) ->
        go (not sign) a;
        go sign b
    | Iff (a, b) | Xor (a, b) ->
        (* the NNF expansion puts both operands under both signs *)
        go true a;
        go false a;
        go true b;
        go false b
  in
  go true f;
  !acc

let is_monotone f = Var.Map.for_all (fun _ o -> not o.neg) (occurrences f)
let is_antitone f = Var.Map.for_all (fun _ o -> not o.pos) (occurrences f)

let is_unate f =
  Var.Map.for_all (fun _ o -> not (o.pos && o.neg)) (occurrences f)
