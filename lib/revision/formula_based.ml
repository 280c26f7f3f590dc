open Logic

exception Cap_exceeded of int

(* Keep the first occurrence of each (structurally equal) member. *)
let dedupe t =
  List.rev
    (List.fold_left
       (fun acc f -> if List.exists (Formula.equal f) acc then acc else f :: acc)
       [] t)

(* DFS enumeration of the maximal subsets of [t] consistent with [p].

   At each node, [included] and [excluded] partition the processed prefix
   and [i] points at the next member.  If included ∪ rest ∪ {p} is
   satisfiable then included ∪ rest is the unique inclusion-maximal
   consistent set of the branch; it is a *global* MCS iff none of the
   excluded members can be added back consistently.  Otherwise we branch
   on member [i], pruning the include-branch when already inconsistent. *)
(* One incremental CDCL solver serves the whole enumeration: [p] is
   asserted once, each theory member is guarded by a selector literal
   ([s_i -> f_i]), and every consistency probe is a solve under
   assumptions — learned clauses are shared across the thousands of
   probes a large enumeration performs. *)
let worlds_idx ?(cap = 100_000) arr p =
  if not (Semantics.is_sat p) then []
  else begin
    let env = Semantics.create () in
    Semantics.assert_formula env p;
    let n = Array.length arr in
    let sels =
      Array.init n (fun i ->
          let s = Var.fresh ~prefix:"_sel" () in
          Semantics.assert_formula env
            (Formula.imp (Formula.var s) arr.(i));
          Semantics.lit_of_var env s)
    in
    let sat_with idxs =
      Semantics.solve
        ~assumptions:(List.map (fun i -> sels.(i)) idxs)
        env
    in
    let out = ref [] in
    let count = ref 0 in
    let rec dfs included excluded i =
      let rest = List.init (n - i) (fun j -> i + j) in
      if sat_with (included @ rest) then begin
        let cand = included @ rest in
        let maximal =
          List.for_all (fun e -> not (sat_with (e :: cand))) excluded
        in
        if maximal then begin
          incr count;
          if !count > cap then raise (Cap_exceeded cap);
          out := List.sort compare cand :: !out
        end
      end
      else if i < n then begin
        if sat_with (i :: included) then dfs (i :: included) excluded (i + 1);
        dfs included (i :: excluded) (i + 1)
      end
    in
    dfs [] [] 0;
    List.rev !out
  end

let worlds ?cap t p =
  let t = dedupe t in
  let arr = Array.of_list t in
  List.map
    (fun idxs -> List.map (fun i -> arr.(i)) idxs)
    (worlds_idx ?cap arr p)

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
