open Logic

type step = { formula : Formula.t; measure : int; size : int }

let joint_alphabet t ps =
  Var.Set.elements
    (List.fold_left
       (fun acc p -> Var.Set.union acc (Formula.vars p))
       (Formula.vars t) ps)

let dalal t ps =
  let x = joint_alphabet t ps in
  let avoid = ref (Var.set_of_list x) in
  let step i phi p =
    (* the step's measure decides [phi] and [p]; EXA is built once at
       the answer, not once per probed threshold *)
    let k = Measure.k (Measure.create phi p) in
    let y = Names.copy ~avoid:!avoid ~suffix:(Printf.sprintf "_y%d" i) x in
    avoid := Var.Set.union !avoid (Var.set_of_list y);
    let phi_ren = Formula.rename (List.combine x y) phi in
    let exa_k, _aux = Hamming.exa k y x in
    let formula = Formula.and_ [ phi_ren; p; exa_k ] in
    { formula; measure = k; size = Formula.size formula }
  in
  let _, _, steps =
    List.fold_left
      (fun (i, phi, acc) p ->
        let s = step i phi p in
        (i + 1, s.formula, s :: acc))
      (1, t, []) ps
  in
  List.rev steps

let weber t ps =
  let x = joint_alphabet t ps in
  let avoid = ref (Var.set_of_list x) in
  let step i psi p =
    let omega = Measure.omega (Measure.create psi p) in
    let letters = Var.Set.elements omega in
    let z = Names.copy ~avoid:!avoid ~suffix:(Printf.sprintf "_z%d" i) letters in
    avoid := Var.Set.union !avoid (Var.set_of_list z);
    let formula =
      Formula.conj2 (Formula.rename (List.combine letters z) psi) p
    in
    { formula; measure = Var.Set.cardinal omega; size = Formula.size formula }
  in
  let _, _, steps =
    List.fold_left
      (fun (i, psi, acc) p ->
        let s = step i psi p in
        (i + 1, s.formula, s :: acc))
      (1, t, []) ps
  in
  List.rev steps

let final = function
  | [] -> Formula.top
  | steps -> (List.nth steps (List.length steps - 1)).formula
