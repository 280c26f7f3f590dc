(* Generic data structures with polynomial-time model checking:
   Definition 7.1.  Section 7 strengthens every non-compactability
   result from "no small formula" to "no small data structure D with a
   poly-time ASK(D, M)"; Theorem 7.1 says every such structure must blow
   up on the witness families unless NP ⊆ P/poly.  Here a structure is a
   size (the |D| of the definition) plus an [ask] procedure, and the
   three representations the library builds (formula evaluation, ROBDD
   lookup, sorted model list) are packaged as instances, so the tests
   can check that each one represents a revision (property 2 of the
   definition, extensionally) and that they answer alike. *)

open Logic
open Revision

type t = { name : string; size : int; ask : Interp.t -> bool }

let of_formula f =
  {
    name = "formula";
    size = Formula.size f;
    ask = (fun m -> Interp.sat m f);
  }

let of_bdd mgr node =
  { name = "bdd"; size = Bdd.node_count node; ask = Bdd.eval mgr node }

let of_models alphabet models =
  let sorted = List.sort_uniq Var.Set.compare models in
  let alpha = Var.set_of_list alphabet in
  {
    name = "model-list";
    size =
      List.fold_left (fun acc m -> acc + Var.Set.cardinal m + 1) 0 sorted;
    ask =
      (fun m ->
        let m = Interp.restrict alpha m in
        List.exists (Var.Set.equal m) sorted);
  }

let agrees_with alphabet a b =
  List.for_all (fun m -> a.ask m = b.ask m) (Interp.subsets alphabet)

let represents s result =
  List.for_all
    (fun m -> s.ask m = Result.model_check result m)
    (Interp.subsets (Result.alphabet result))
