open Logic

(* Every rule is a structural pass that never grows the formula, so the
   fixpoint iteration in [simplify] terminates. *)

let rec constant_fold (f : Formula.t) : Formula.t =
  match f with
  | True | False | Var _ -> f
  | Not g -> Formula.not_ (constant_fold g)
  | And gs -> Formula.and_ (List.map constant_fold gs)
  | Or gs -> Formula.or_ (List.map constant_fold gs)
  | Imp (a, b) -> Formula.imp (constant_fold a) (constant_fold b)
  | Iff (a, b) -> Formula.iff (constant_fold a) (constant_fold b)
  | Xor (a, b) -> Formula.xor (constant_fold a) (constant_fold b)

(* -- idempotence / complement / absorption -------------------------------- *)

(* Does the [And]/[Or] member [g] absorb against some other member?  For
   a conjunction: [g = a | ... ] is redundant when a sibling equals one
   of its disjuncts.  [inner] selects the nested connective's members. *)
let absorbed inner siblings g =
  match inner g with
  | None -> false
  | Some hs ->
      List.exists
        (fun sib -> (not (Formula.equal sib g)) && List.mem sib hs)
        siblings

let rec contract (f : Formula.t) : Formula.t =
  match f with
  | True | False | Var _ -> f
  | Not g -> Formula.not_ (contract g)
  | And gs ->
      let gs = List.sort_uniq Formula.compare (List.map contract gs) in
      if List.exists (fun g -> List.mem (Formula.not_ g) gs) gs then
        Formula.bot
      else
        let inner (g : Formula.t) =
          match g with Or hs -> Some hs | _ -> None
        in
        Formula.and_ (List.filter (fun g -> not (absorbed inner gs g)) gs)
  | Or gs ->
      let gs = List.sort_uniq Formula.compare (List.map contract gs) in
      if List.exists (fun g -> List.mem (Formula.not_ g) gs) gs then
        Formula.top
      else
        let inner (g : Formula.t) =
          match g with And hs -> Some hs | _ -> None
        in
        Formula.or_ (List.filter (fun g -> not (absorbed inner gs g)) gs)
  | Imp (a, b) ->
      let a = contract a and b = contract b in
      if Formula.equal a b then Formula.top else Formula.imp a b
  | Iff (a, b) ->
      let a = contract a and b = contract b in
      if Formula.equal a b then Formula.top else Formula.iff a b
  | Xor (a, b) ->
      let a = contract a and b = contract b in
      if Formula.equal a b then Formula.bot else Formula.xor a b

(* -- unit propagation ------------------------------------------------------ *)

let literal_of (f : Formula.t) =
  match f with
  | Var x -> Some (x, true)
  | Not (Var x) -> Some (x, false)
  | _ -> None

(* Literal members of an [And] pin their letters in the siblings (to the
   asserted value), and dually literal members of an [Or] pin theirs (to
   the refuted value).  The literals themselves are kept, so the node is
   equivalent to the original. *)
let propagate_members ~value gs =
  let units, conflict =
    List.fold_left
      (fun (m, conflict) g ->
        match literal_of g with
        | Some (x, sign) -> (
            let v = value sign in
            match Var.Map.find_opt x m with
            | Some v' when v' <> v -> (m, true)
            | _ -> (Var.Map.add x v m, conflict))
        | None -> (m, conflict))
      (Var.Map.empty, false) gs
  in
  if conflict then None
  else if Var.Map.is_empty units then Some gs
  else
    Some
      (List.map
         (fun g ->
           match literal_of g with
           | Some _ -> g (* keep the units themselves *)
           | None -> Formula.assign_vars units g)
         gs)

let rec unit_propagate (f : Formula.t) : Formula.t =
  match f with
  | True | False | Var _ -> f
  | Not g -> Formula.not_ (unit_propagate g)
  | And gs -> (
      let gs = List.map unit_propagate gs in
      match propagate_members ~value:(fun sign -> sign) gs with
      | None -> Formula.bot (* complementary unit conjuncts *)
      | Some gs -> Formula.and_ gs)
  | Or gs -> (
      let gs = List.map unit_propagate gs in
      match propagate_members ~value:(fun sign -> not sign) gs with
      | None -> Formula.top (* complementary unit disjuncts *)
      | Some gs -> Formula.or_ gs)
  | Imp (a, b) -> Formula.imp (unit_propagate a) (unit_propagate b)
  | Iff (a, b) -> Formula.iff (unit_propagate a) (unit_propagate b)
  | Xor (a, b) -> Formula.xor (unit_propagate a) (unit_propagate b)

(* -- clause subsumption ---------------------------------------------------- *)

let subsume (f : Formula.t) : Formula.t =
  match Clausal.view f with
  | None -> f
  | Some cnf ->
      let as_sets =
        List.map (fun c -> List.sort_uniq compare c) cnf
        |> List.sort_uniq compare
      in
      let subset c d = List.for_all (fun l -> List.mem l d) c in
      let kept =
        List.filter
          (fun c ->
            not
              (List.exists
                 (fun d -> (not (d == c)) && subset d c && not (subset c d))
                 as_sets))
          as_sets
      in
      Formula.and_
        (List.map
           (fun c -> Formula.or_ (List.map (fun (s, x) -> Formula.lit s x) c))
           kept)

(* -- pipelines ------------------------------------------------------------- *)

let fixpoint step f =
  let rec go f budget =
    if budget = 0 then f
    else
      let f' = step f in
      if Formula.equal f' f then f else go f' (budget - 1)
  in
  go f 20

let simplify =
  fixpoint (fun f -> subsume (unit_propagate (contract (constant_fold f))))
