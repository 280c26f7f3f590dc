(* The pre-session checkers: a fresh solver, a fresh Tseitin encoding
   and, for distances, a fresh [Hamming.exa k] build per probe.
   Semantically identical to the incremental-session paths of
   Compact.Measure and Compact.Check, which the tests hold
   against them, answers and solver work both (test_session.ml). *)

open Logic
module MB = Revision.Model_based
module Measure = Compact.Measure

(* k_{T,P}: [t[X/Y] /\ p /\ EXA(k)] rebuilt and re-solved for each
   increasing [k]. *)
let min_distance_exa t p =
  if not (Semantics.is_sat t) then None
  else if not (Semantics.is_sat p) then None
  else begin
    let alphabet =
      Var.Set.elements (Var.Set.union (Formula.vars t) (Formula.vars p))
    in
    let ys = List.map (Var.copy_of ~suffix:"__y") alphabet in
    let t_y = Formula.rename (List.combine alphabet ys) t in
    let n = List.length alphabet in
    let rec go k =
      if k > n then None
      else begin
        let exa_k, _ = Hamming.exa k alphabet ys in
        if Semantics.is_sat (Formula.and_ [ t_y; p; exa_k ]) then Some k
        else go (k + 1)
      end
    in
    go 0
  end

let dist_to f n alphabet =
  if not (Semantics.is_sat f) then None
  else begin
    let avoid = Var.set_of_list alphabet in
    let ys = Compact.Names.copy ~avoid ~suffix:"_d" alphabet in
    let pin =
      Formula.and_
        (List.map2 (fun x y -> Formula.lit (Var.Set.mem x n) y) alphabet ys)
    in
    let len = List.length alphabet in
    let rec probe k =
      if k > len then None
      else begin
        let exa_k, _ = Hamming.exa k alphabet ys in
        if Semantics.is_sat (Formula.and_ [ f; pin; exa_k ]) then Some k
        else probe (k + 1)
      end
    in
    probe 0
  end

(* CEGAR on a fresh environment: guess a model [m] of [t], keep it when
   [refutes m] fails, otherwise block it and guess again. *)
let exists_witness ~cap op t alphabet refutes =
  let env = Semantics.create () in
  List.iter (fun x -> ignore (Semantics.lit_of_var env x)) alphabet;
  Semantics.assert_formula env t;
  let rec loop i =
    if i > cap then
      raise
        (Compact.Check.Cegar_cap_exceeded
           { cap; opname = MB.name op; nletters = List.length alphabet })
    else if not (Semantics.solve env) then false
    else begin
      let m = Semantics.model_on env alphabet in
      if refutes m then begin
        Semantics.block env alphabet m;
        loop (i + 1)
      end
      else true
    end
  in
  loop 0

let closer_by_inclusion p alphabet m n =
  let d = Interp.sym_diff m n in
  if Var.Set.is_empty d then false
  else begin
    let agree =
      Formula.and_
        (List.filter_map
           (fun x ->
             if Var.Set.mem x d then None
             else Some (Formula.lit (Var.Set.mem x m) x))
           alphabet)
    in
    let strictly_inside =
      Formula.or_
        (List.map
           (fun x -> Formula.lit (Var.Set.mem x m) x)
           (Var.Set.elements d))
    in
    Semantics.is_sat (Formula.and_ [ p; agree; strictly_inside ])
  end

let closer_by_cardinality p alphabet m d =
  match dist_to p m alphabet with None -> false | Some dp -> dp < d

let winslett_check ~cap op t p alphabet n =
  exists_witness ~cap op t alphabet (fun m ->
      closer_by_inclusion p alphabet m n)

let model_check ?(cegar_cap = 50_000) op t p n =
  if not (Semantics.is_sat t) then invalid_arg "Compact.Check: T unsatisfiable";
  if not (Semantics.is_sat p) then invalid_arg "Compact.Check: P unsatisfiable";
  let alphabet =
    Var.Set.elements (Var.Set.union (Formula.vars t) (Formula.vars p))
  in
  let n = Interp.restrict (Var.set_of_list alphabet) n in
  if not (Interp.sat n p) then false
  else
    match op with
    | MB.Dalal -> (
        match (min_distance_exa t p, dist_to t n alphabet) with
        | Some k, Some d -> d = k
        | _ -> assert false (* both satisfiable *))
    | MB.Weber ->
        let omega = Measure.omega (Measure.create (Kb.make t) p) in
        let pin =
          Formula.and_
            (List.filter_map
               (fun x ->
                 if Var.Set.mem x omega then None
                 else Some (Formula.lit (Var.Set.mem x n) x))
               alphabet)
        in
        Semantics.is_sat (Formula.conj2 t pin)
    | MB.Satoh ->
        let delta = Measure.delta (Measure.create (Kb.make t) p) in
        List.exists (fun s -> Interp.sat (Interp.sym_diff n s) t) delta
    | MB.Winslett -> winslett_check ~cap:cegar_cap MB.Winslett t p alphabet n
    | MB.Forbus ->
        exists_witness ~cap:cegar_cap MB.Forbus t alphabet (fun m ->
            closer_by_cardinality p alphabet m (Legacy.hamming m n))
    | MB.Borgida ->
        if Semantics.is_sat (Formula.conj2 t p) then Interp.sat n t
        else winslett_check ~cap:cegar_cap MB.Winslett t p alphabet n
