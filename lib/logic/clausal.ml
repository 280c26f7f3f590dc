(* Structural CNF view and linear-time deciders for the tractable
   clausal fragments.  No solver, no expansion: everything here is one
   pass over the formula or the clause list. *)

(* -- view ---------------------------------------------------------------- *)

let literal : Formula.t -> Cnf.literal option = function
  | Var x -> Some (true, x)
  | Not (Var x) -> Some (false, x)
  | _ -> None

(* A clause is a literal, a disjunction of literals, or a rule
   [l1 & ... & lk -> clause] (the form Horn theories are written in:
   the body literals flip sign and join the head).  The smart
   constructors guarantee [Or] lists contain no constants and no nested
   [Or], so a memberwise literal check is complete. *)
let rec clause (f : Formula.t) : Cnf.clause option =
  match literal f with
  | Some l -> Some [ l ]
  | None -> (
      match f with
      | Or gs ->
          List.fold_left
            (fun acc g ->
              match (acc, literal g) with
              | Some c, Some l -> Some (l :: c)
              | _ -> None)
            (Some []) gs
          |> Option.map List.rev
      | Imp (lhs, rhs) -> (
          let negated_body =
            match literal lhs with
            | Some (s, x) -> Some [ (not s, x) ]
            | None -> (
                match lhs with
                | And gs ->
                    List.fold_left
                      (fun acc g ->
                        match (acc, literal g) with
                        | Some c, Some (s, x) -> Some ((not s, x) :: c)
                        | _ -> None)
                      (Some []) gs
                    |> Option.map List.rev
                | _ -> None)
          in
          match (negated_body, clause rhs) with
          | Some b, Some h -> Some (b @ h)
          | _ -> None)
      | _ -> None)

let view (f : Formula.t) : Cnf.t option =
  match f with
  | True -> Some []
  | False -> Some [ [] ]
  | And gs ->
      List.fold_left
        (fun acc g ->
          match (acc, clause g) with
          | Some cs, Some c -> Some (c :: cs)
          | _ -> None)
        (Some []) gs
      |> Option.map List.rev
  | f -> Option.map (fun c -> [ c ]) (clause f)

(* -- fragment predicates -------------------------------------------------- *)

let count_sign sign c =
  List.length (List.filter (fun (s, _) -> s = sign) c)

let is_horn = List.for_all (fun c -> count_sign true c <= 1)
let is_dual_horn = List.for_all (fun c -> count_sign false c <= 1)
let is_krom = List.for_all (fun c -> List.length c <= 2)

(* -- Horn: unit propagation to the minimal model -------------------------- *)

(* A Horn CNF is satisfiable iff its unit-propagation closure (the
   minimal model) violates no clause: forcing a head whose body is fully
   forced only adds implied letters, so the only failure mode is an
   all-negative clause whose body becomes fully true. *)
let horn_sat cnf =
  if not (is_horn cnf) then invalid_arg "Clausal.horn_sat: not Horn";
  (* Normalized clause table: body as a deduplicated set of negative
     letters, head as the optional positive letter.  Tautologies (head
     appearing in its own body) are dropped — always satisfied. *)
  let clauses =
    List.filter_map
      (fun c ->
        let head =
          List.fold_left
            (fun acc (s, x) -> if s then Some x else acc)
            None c
        in
        let body =
          List.fold_left
            (fun acc (s, x) -> if s then acc else Var.Set.add x acc)
            Var.Set.empty c
        in
        match head with
        | Some h when Var.Set.mem h body -> None
        | _ -> Some (head, body))
      cnf
    |> Array.of_list
  in
  let remaining = Array.map (fun (_, body) -> Var.Set.cardinal body) clauses in
  (* occurrences: letter -> indices of clauses whose body mentions it *)
  let occ = Hashtbl.create 64 in
  Array.iteri
    (fun i (_, body) ->
      Var.Set.iter
        (fun x ->
          Hashtbl.replace occ x (i :: Option.value ~default:[] (Hashtbl.find_opt occ x)))
        body)
    clauses;
  let forced = Hashtbl.create 64 in
  let queue = Queue.create () in
  let unsat = ref false in
  let force x =
    if not (Hashtbl.mem forced x) then begin
      Hashtbl.add forced x ();
      Queue.add x queue
    end
  in
  let trigger i =
    match fst clauses.(i) with
    | None -> unsat := true
    | Some h -> force h
  in
  Array.iteri (fun i r -> if r = 0 then trigger i) remaining;
  while (not !unsat) && not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    List.iter
      (fun i ->
        remaining.(i) <- remaining.(i) - 1;
        if remaining.(i) = 0 then trigger i)
      (Option.value ~default:[] (Hashtbl.find_opt occ x))
  done;
  not !unsat

(* Satisfiability is invariant under negating every variable, and the
   sign mirror of a dual-Horn CNF is Horn. *)
let dual_horn_sat cnf =
  if not (is_dual_horn cnf) then
    invalid_arg "Clausal.dual_horn_sat: not dual-Horn";
  horn_sat (List.map (List.map (fun (s, x) -> (not s, x))) cnf)

(* -- Krom: 2-SAT via implication-graph SCCs ------------------------------- *)

(* Nodes are literals: variable [i] is node [2i] positive, [2i+1]
   negative.  Clause [(a | b)] contributes [~a -> b] and [~b -> a]; a
   unit clause [a] contributes [~a -> a].  Unsatisfiable iff some
   variable shares an SCC with its own negation (Aspvall-Plass-Tarjan). *)
let krom_sat cnf =
  if not (is_krom cnf) then invalid_arg "Clausal.krom_sat: not Krom";
  if List.exists (fun c -> c = []) cnf then false
  else begin
    let ids = Hashtbl.create 64 in
    let nvars = ref 0 in
    let id x =
      match Hashtbl.find_opt ids x with
      | Some i -> i
      | None ->
          let i = !nvars in
          incr nvars;
          Hashtbl.add ids x i;
          i
    in
    let node (s, x) = (2 * id x) + if s then 0 else 1 in
    let neg n = n lxor 1 in
    let edges = ref [] in
    List.iter
      (fun c ->
        match List.map node c with
        | [ a ] -> edges := (neg a, a) :: !edges
        | [ a; b ] -> edges := (neg a, b) :: (neg b, a) :: !edges
        | _ -> assert false)
      cnf;
    let n = 2 * !nvars in
    let adj = Array.make n [] in
    List.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) !edges;
    (* Iterative Tarjan SCC. *)
    let index = Array.make n (-1) in
    let lowlink = Array.make n 0 in
    let on_stack = Array.make n false in
    let comp = Array.make n (-1) in
    let stack = ref [] in
    let next_index = ref 0 in
    let next_comp = ref 0 in
    let strongconnect v =
      (* worklist of (node, remaining successors) frames *)
      let frames = Stack.create () in
      let open_node v =
        index.(v) <- !next_index;
        lowlink.(v) <- !next_index;
        incr next_index;
        stack := v :: !stack;
        on_stack.(v) <- true;
        Stack.push (v, ref adj.(v)) frames
      in
      open_node v;
      while not (Stack.is_empty frames) do
        let u, succs = Stack.top frames in
        match !succs with
        | w :: rest ->
            succs := rest;
            if index.(w) = -1 then open_node w
            else if on_stack.(w) then
              lowlink.(u) <- min lowlink.(u) index.(w)
        | [] ->
            ignore (Stack.pop frames);
            if lowlink.(u) = index.(u) then begin
              let rec popc () =
                match !stack with
                | w :: rest ->
                    stack := rest;
                    on_stack.(w) <- false;
                    comp.(w) <- !next_comp;
                    if w <> u then popc ()
                | [] -> assert false
              in
              popc ();
              incr next_comp
            end;
            (match Stack.top_opt frames with
            | Some (p, _) -> lowlink.(p) <- min lowlink.(p) lowlink.(u)
            | None -> ())
      done
    in
    for v = 0 to n - 1 do
      if index.(v) = -1 then strongconnect v
    done;
    let ok = ref true in
    for i = 0 to !nvars - 1 do
      if comp.(2 * i) = comp.((2 * i) + 1) then ok := false
    done;
    !ok
  end

(* -- routed decision and instrumentation ---------------------------------- *)

type route = Horn | Dual_horn | Krom

let decide_sat f =
  match view f with
  | None -> None
  | Some cnf ->
      if is_horn cnf then Some (horn_sat cnf, Horn)
      else if is_dual_horn cnf then Some (dual_horn_sat cnf, Dual_horn)
      else if is_krom cnf then Some (krom_sat cnf, Krom)
      else None

(* The hit counters live on the Obs registry (Atomic-backed: is_sat
   runs inside pool tasks, and a plain ref would drop increments under
   concurrent fast-path hits). *)
let horn_hits = Revkb_obs.Obs.counter "sat.route.horn"
let dual_horn_hits = Revkb_obs.Obs.counter "sat.route.dual_horn"
let krom_hits = Revkb_obs.Obs.counter "sat.route.krom"

let record_hit = function
  | Horn -> Revkb_obs.Obs.incr horn_hits
  | Dual_horn -> Revkb_obs.Obs.incr dual_horn_hits
  | Krom -> Revkb_obs.Obs.incr krom_hits
