module Obs = Revkb_obs.Obs

let c_hits = Obs.counter "sem.record.hits"
let c_adds = Obs.counter "sem.record.adds"

(* Model i is bit i of a column: i < Sys.int_size - 1 keeps 1 lsl i > 0. *)
let capacity = Sys.int_size - 1

(* [cols.(j)] is the column of [xs.(j)]; [n] models were ever added. *)
type t = { mutable xs : Var.t array; mutable cols : int array; mutable n : int }

let create () = { xs = [||]; cols = [||]; n = 0 }

let rec eval r (f : Formula.t) =
  match f with
  | True -> -1
  | False -> 0
  | Var x ->
      let j = Array.find_index (fun y -> Var.compare x y = 0) r.xs in
      Option.fold ~none:0 ~some:(Array.get r.cols) j
  | Not g -> lnot (eval r g)
  | And gs -> List.fold_left (fun w g -> w land eval r g) (-1) gs
  | Or gs -> List.fold_left (fun w g -> w lor eval r g) 0 gs
  | Imp (a, b) -> lnot (eval r a) lor eval r b
  | Iff (a, b) -> lnot (eval r a lxor eval r b)
  | Xor (a, b) -> eval r a lxor eval r b

let refutes r q =
  let n = r.n in
  let live = if n >= capacity then max_int else (1 lsl n) - 1 in
  live land lnot (eval r q) <> 0

(* The model takes the oldest slot: bit set where m holds, else cleared. *)
let add r m =
  let fresh = Var.Set.filter (fun x -> not (Array.mem x r.xs)) m in
  r.xs <- Array.append r.xs (Array.of_list (Var.Set.elements fresh));
  r.cols <- Array.append r.cols (Array.make (Var.Set.cardinal fresh) 0);
  let bit = 1 lsl (r.n mod capacity) in
  let set j c = if Var.Set.mem r.xs.(j) m then c lor bit else c land lnot bit in
  r.cols <- Array.mapi set r.cols;
  r.n <- r.n + 1;
  Obs.incr c_adds

let entails r q find =
  if refutes r q then (Obs.incr c_hits; false)
  else Option.fold ~none:true ~some:(fun m -> add r m; false) (find ())
