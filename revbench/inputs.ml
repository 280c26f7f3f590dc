(* Seeded input generators.  They produce only the text a user would
   type or a client would send -- formulas, theories, candidate models
   -- and call nothing in the library, so no change to the program can
   change what a workload asks for. *)

let letter prefix i = Printf.sprintf "%s%d" prefix i

let lit prefix i positive =
  if positive then letter prefix (i + 1) else "~" ^ letter prefix (i + 1)

(* [k] distinct indices below [n], after the ones in [init]. *)
let distinct ?(init = []) rng n k =
  let rec go acc =
    if List.length acc >= k then List.rev acc
    else
      let i = Random.State.int rng n in
      if List.mem i acc then go acc else go (i :: acc)
  in
  go (List.rev init)

let assignment rng n = Array.init n (fun _ -> Random.State.bool rng)

(* A clause as (letter index, sign) pairs. *)
type clause = (int * bool) list

let clause_text prefix (c : clause) =
  "(" ^ String.concat " | " (List.map (fun (i, s) -> lit prefix i s) c) ^ ")"

(* A 3-clause on distinct letters that [planted] satisfies: when no
   literal agrees with it, the first one is flipped. *)
let planted_clause ?first rng n planted : clause =
  let idx = distinct ?init:(Option.map (fun i -> [ i ]) first) rng n 3 in
  let signs = List.map (fun _ -> Random.State.bool rng) idx in
  let signs =
    if List.exists2 (fun i s -> planted.(i) = s) idx signs then signs
    else match signs with s :: rest -> (not s) :: rest | [] -> []
  in
  List.combine idx signs

(* [nclauses] planted 3-clauses over [n] letters; clause [j] starts
   with letter [j mod n], so every letter occurs. *)
let planted_clauses rng n nclauses =
  let planted = assignment rng n in
  List.init nclauses (fun j -> planted_clause ~first:(j mod n) rng n planted)

let cnf_text ?(sep = " & ") prefix clauses = String.concat sep (List.map (clause_text prefix) clauses)

(* Models of a clause set over [n] letters, by brute force on bit
   masks: a clause holds on code [m] iff [m] has a letter of [pos] or
   lacks one of [neg]. *)
let count_models n (clauses : clause list) =
  let masks =
    Array.of_list
      (List.map
         (List.fold_left
            (fun (pos, neg) (i, s) -> if s then (pos lor (1 lsl i), neg) else (pos, neg lor (1 lsl i)))
            (0, 0))
         clauses)
  in
  let count = ref 0 in
  for m = 0 to (1 lsl n) - 1 do
    if Array.for_all (fun (pos, neg) -> m land pos <> 0 || lnot m land neg <> 0) masks then incr count
  done;
  !count

(* Planted clauses whose model count lies in [lo, hi].  The cost and
   the result size of a revision grow with the model counts of T and P,
   and draws outside a band make them heavy-tailed from seed to seed. *)
let rec banded rng n nclauses ~lo ~hi =
  let clauses = planted_clauses rng n nclauses in
  let m = count_models n clauses in
  if lo <= m && m <= hi then clauses else banded rng n nclauses ~lo ~hi

(* A ';'-separated KB of planted 3-clauses with [lo, hi] models. *)
let kb_in_band rng prefix n nclauses ~lo ~hi =
  cnf_text ~sep:"; " prefix (banded rng n nclauses ~lo ~hi)

(* -- revision instances (T, P) ------------------------------------------- *)

type instance = { theory : string; p : string }

(* Random satisfiable 3-CNF over [n] letters: T at clause ratio 4 with
   3 to 20 models, P at ratio 2.5 with about the median model count of
   such a P (80 at 12 letters, growing 1.42-fold a letter), so model
   sets stay small and the 2^n sweep sets the cost, not printing. *)
let random_3cnf rng n =
  let typical = 80. *. (1.42 ** float_of_int (n - 12)) in
  let theory = banded rng n (4 * n) ~lo:3 ~hi:20 in
  let p =
    banded rng n (5 * n / 2) ~lo:(int_of_float (0.7 *. typical)) ~hi:(int_of_float (1.4 *. typical))
  in
  { theory = cnf_text "x" theory; p = cnf_text "x" p }

(* The Theorem 3.6 witness family over atoms b_i, twins y_i and one
   guard c_j per random 3-clause gamma_j over the atoms:
   T = AND_i (b_i != y_i) & AND_j (gamma_j | ~c_j),
   P = AND_i (~b_i & ~y_i). *)
let witness rng ~atoms ~clauses =
  let gamma j =
    let idx = distinct rng atoms 3 in
    Printf.sprintf "(%s | ~%s)"
      (String.concat " | "
         (List.map (fun i -> lit "b" i (Random.State.bool rng)) idx))
      (letter "c" (j + 1))
  in
  let twins =
    List.init atoms (fun i ->
        Printf.sprintf "(%s != %s)" (letter "b" (i + 1)) (letter "y" (i + 1)))
  in
  {
    theory = String.concat " & " (twins @ List.init clauses gamma);
    p =
      String.concat " & "
        (List.init atoms (fun i ->
             Printf.sprintf "~%s & ~%s" (letter "b" (i + 1)) (letter "y" (i + 1))));
  }

(* The Wide_family shape past one machine word: T = w1 & ... & wn has
   one model, P = (~w1 | ... | ~wm) & w(m+1) & ... & wn has 2^m - 1. *)
let wide ~n ~m =
  let w i = letter "w" (i + 1) in
  {
    theory = String.concat " & " (List.init n w);
    p =
      "("
      ^ String.concat " | " (List.init m (fun i -> "~" ^ w i))
      ^ ")"
      ^ String.concat "" (List.init (n - m) (fun i -> " & " ^ w (m + i)));
  }

(* -- serve traffic ------------------------------------------------------- *)

(* A satisfiable revising formula of shape [i] in a cycle of four: one
   or two literals on distinct letters, with or without a binary
   disjunction on two more.  Cycling fixes the mix of |V(P)| for every
   seed.  [forced] lists (letter, value) pairs under which any
   assignment is a model. *)
type revising = { text : string; forced : (int * bool) list }

let revising rng prefix n i =
  let lits = 1 + (i mod 2) and clause = i / 2 mod 2 = 1 in
  let idx = distinct rng n (lits + if clause then 2 else 0) in
  let pairs = List.map (fun i -> (i, Random.State.bool rng)) idx in
  let units = List.filteri (fun i _ -> i < lits) pairs in
  let unit_text = List.map (fun (i, s) -> lit prefix i s) units in
  match List.filteri (fun i _ -> i >= lits) pairs with
  | [ (a, sa); (b, sb) ] ->
      {
        text =
          String.concat " & "
            (unit_text @ [ Printf.sprintf "(%s | %s)" (lit prefix a sa) (lit prefix b sb) ]);
        forced = (a, sa) :: units;
      }
  | _ -> { text = String.concat " & " unit_text; forced = units }

(* A candidate model of a revising formula, as the space-separated
   letters it makes true: random except where [forced] pins a letter. *)
let candidate rng prefix n forced =
  String.concat " "
    (List.filter_map
       (fun i ->
         let v =
           match List.assoc_opt i forced with
           | Some v -> v
           | None -> Random.State.bool rng
         in
         if v then Some (letter prefix (i + 1)) else None)
       (List.init n Fun.id))

(* A query: a literal, or the conjunction or disjunction of two. *)
let query rng prefix n =
  let l () = lit prefix (Random.State.int rng n) (Random.State.bool rng) in
  match Random.State.int rng 3 with
  | 0 -> l ()
  | 1 -> l () ^ " | " ^ l ()
  | _ -> l () ^ " & " ^ l ()

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* -- request text ---------------------------------------------------------- *)

(* JSON request text rendered by the benchmark itself, so a change to
   the program's JSON layer cannot change the requests. *)
type json = S of string | B of bool | L of json list | O of (string * json) list

let rec render = function
  | S s -> "\"" ^ String.escaped s ^ "\""
  | B b -> string_of_bool b
  | L vs -> "[" ^ String.concat "," (List.map render vs) ^ "]"
  | O ms ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> render (S k) ^ ":" ^ render v) ms)
      ^ "}"
