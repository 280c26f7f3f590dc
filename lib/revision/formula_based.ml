open Logic

(* Keep the first occurrence of each (structurally equal) member. *)
let dedupe t =
  List.rev
    (List.fold_left
       (fun acc f -> if List.exists (Formula.equal f) acc then acc else f :: acc)
       [] t)

(* W(T, P) on one session: [p] is asserted once, each member is encoded
   once into its (biconditional) Tseitin literal, and the worlds are the
   maximal sets of member literals consistent with it.  Sorted as index
   lists, they come in the order of a walk that tries each member in
   before leaving it out. *)
let worlds ?(cap = 100_000) t p =
  let arr = Array.of_list (dedupe t) in
  let s = Semantics.Session.create () in
  Semantics.Session.assert_always s p;
  let env = Semantics.Session.env s in
  let lits = Array.to_list (Array.map (Semantics.encode env) arr) in
  Semantics.Session.maximal_subsets ~cap s lits
  |> List.sort compare
  |> List.map (List.map (Array.get arr))

let gfuv_formula ?cap t p =
  let ws = worlds ?cap t p in
  Formula.conj2 (Formula.or_ (List.map Theory.conj ws)) p

let gfuv_entails ?cap t p q =
  let ws = worlds ?cap t p in
  List.for_all
    (fun w ->
      not
        (Semantics.is_sat
           (Formula.and_ [ Theory.conj w; p; Formula.not_ q ])))
    ws

let joint_alphabet t p =
  Var.Set.elements (Var.Set.union (Theory.vars t) (Formula.vars p))

let gfuv_revise ?cap t p =
  let alphabet = joint_alphabet t p in
  Result.make alphabet (Models.enumerate alphabet (gfuv_formula ?cap t p))

let widtio ?cap t p =
  match worlds ?cap t p with
  | [] -> [ p ]
  | ws ->
      let t = dedupe t in
      let inter =
        List.filter
          (fun f -> List.for_all (List.exists (Formula.equal f)) ws)
          t
      in
      inter @ [ p ]

let widtio_revise ?cap t p =
  let alphabet = joint_alphabet t p in
  Result.make alphabet
    (Models.enumerate alphabet (Theory.conj (widtio ?cap t p)))

let nebel_worlds ?cap ~priorities p =
  let rec go classes base =
    match classes with
    | [] -> [ List.rev base ]
    | cls :: rest ->
        let p' = Formula.and_ (p :: List.rev base) in
        let ws = worlds ?cap cls p' in
        List.concat_map
          (fun w -> go rest (List.rev_append w base))
          ws
  in
  go priorities []

let nebel_formula ?cap ~priorities p =
  Formula.conj2
    (Formula.or_ (List.map Theory.conj (nebel_worlds ?cap ~priorities p)))
    p

let nebel_revise ?cap ~priorities p =
  let t = List.concat priorities in
  let alphabet = joint_alphabet t p in
  Result.make alphabet
    (Models.enumerate alphabet (nebel_formula ?cap ~priorities p))
