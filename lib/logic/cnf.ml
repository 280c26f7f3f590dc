type literal = bool * Var.t
type clause = literal list
type t = clause list

let lit_formula (sign, x) = Formula.lit sign x

let to_formula cnf =
  Formula.and_ (List.map (fun c -> Formula.or_ (List.map lit_formula c)) cnf)

(* Distributive conversion on the NNF.  Clauses are kept set-like; a
   clause containing complementary literals is dropped.  The explosion
   guard counts clauses as they are produced and fails fast, so hitting
   the cap costs O(cap) work and memory, not the full cross product. *)
let of_formula_naive f =
  let cap = 100_000 in
  let blow () = invalid_arg "Cnf.of_formula_naive: clause explosion" in
  (* [concat_capped] and [product_step] build their results one clause at
     a time, bailing out the moment the count passes [cap]. *)
  let concat_capped parts =
    let n = ref 0 in
    List.concat_map
      (fun cs ->
        List.iter
          (fun _ ->
            incr n;
            if !n > cap then blow ())
          cs;
        cs)
      parts
  in
  let clause_union c1 c2 = List.sort_uniq compare (c1 @ c2) in
  let product_step acc cs =
    let n = ref 0 in
    List.concat_map
      (fun c1 ->
        List.map
          (fun c2 ->
            incr n;
            if !n > cap then blow ();
            clause_union c1 c2)
          cs)
      acc
  in
  let tautological c =
    List.exists (fun (s, x) -> List.mem (not s, x) c) c
  in
  let rec go (f : Formula.t) =
    match f with
    | True -> []
    | False -> [ [] ]
    | Var x -> [ [ (true, x) ] ]
    | Not (Var x) -> [ [ (false, x) ] ]
    | Not _ -> assert false (* NNF *)
    | And gs -> concat_capped (List.map go gs)
    | Or gs ->
        let parts = List.map go gs in
        let product = List.fold_left product_step [ [] ] parts in
        List.filter (fun c -> not (tautological c)) product
    | Imp _ | Iff _ | Xor _ -> assert false (* NNF *)
  in
  List.sort_uniq compare (go (Formula.nnf f))

let tseitin f =
  let clauses = ref [] in
  let defs = ref [] in
  let add c = clauses := c :: !clauses in
  let fresh () =
    let v = Var.fresh ~prefix:"_t" () in
    defs := v :: !defs;
    v
  in
  (* returns a literal equivalent to the subformula *)
  let rec enc (f : Formula.t) : literal =
    match f with
    | True ->
        let v = fresh () in
        add [ (true, v) ];
        (true, v)
    | False ->
        let v = fresh () in
        add [ (true, v) ];
        (false, v)
    | Var x -> (true, x)
    | Not g ->
        let s, x = enc g in
        (not s, x)
    | And gs ->
        let ls = List.map enc gs in
        let v = fresh () in
        List.iter (fun (s, x) -> add [ (false, v); (s, x) ]) ls;
        add ((true, v) :: List.map (fun (s, x) -> (not s, x)) ls);
        (true, v)
    | Or gs ->
        let ls = List.map enc gs in
        let v = fresh () in
        List.iter (fun (s, x) -> add [ (true, v); (not s, x) ]) ls;
        add ((false, v) :: ls);
        (true, v)
    | Imp (a, b) ->
        let sa, xa = enc a and lb = enc b in
        let v = fresh () in
        add [ (false, v); (not sa, xa); lb ];
        add [ (true, v); (sa, xa) ];
        add [ (true, v); (not (fst lb), snd lb) ];
        (true, v)
    | Iff (a, b) ->
        let sa, xa = enc a and sb, xb = enc b in
        let v = fresh () in
        add [ (false, v); (not sa, xa); (sb, xb) ];
        add [ (false, v); (sa, xa); (not sb, xb) ];
        add [ (true, v); (sa, xa); (sb, xb) ];
        add [ (true, v); (not sa, xa); (not sb, xb) ];
        (true, v)
    | Xor (a, b) ->
        let s, x = enc (Formula.iff a b) in
        (not s, x)
  in
  let root = enc f in
  add [ root ];
  (List.rev !clauses, List.rev !defs)

let to_dimacs cnf =
  let index = Hashtbl.create 64 in
  let next = ref 0 in
  let id x =
    match Hashtbl.find_opt index x with
    | Some i -> i
    | None ->
        incr next;
        Hashtbl.add index x !next;
        !next
  in
  let body =
    List.map
      (fun c ->
        String.concat " "
          (List.map (fun (s, x) -> string_of_int (if s then id x else -id x)) c
          @ [ "0" ]))
      cnf
  in
  Printf.sprintf "p cnf %d %d\n%s\n" !next (List.length cnf)
    (String.concat "\n" body)
