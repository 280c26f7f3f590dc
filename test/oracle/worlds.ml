(* W(T, P) read off its definition, for differential tests of
   [Revision.Formula_based.worlds]: every subset of T's members (first
   occurrences kept) consistent with P to which no other member can be
   added consistently.  One satisfiability test per subset and per
   member it leaves out; the worlds come as sorted index lists in
   [compare] order, the order [Formula_based.worlds] documents. *)

open Logic

let worlds t p =
  let members =
    List.fold_left
      (fun acc g ->
        if List.exists (Formula.equal g) acc then acc else acc @ [ g ])
      [] t
  in
  let arr = Array.of_list members in
  let n = Array.length arr in
  let consistent idxs =
    Semantics.is_sat (Formula.and_ (p :: List.map (Array.get arr) idxs))
  in
  let rec subsets i =
    if i = n then [ [] ]
    else
      let rest = subsets (i + 1) in
      List.map (fun s -> i :: s) rest @ rest
  in
  let maximal s =
    List.for_all
      (fun i -> List.mem i s || not (consistent (List.sort compare (i :: s))))
      (List.init n Fun.id)
  in
  List.filter (fun s -> consistent s && maximal s) (subsets 0)
  |> List.sort compare
  |> List.map (List.map (Array.get arr))
