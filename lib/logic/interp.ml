type t = Var.Set.t

let of_list = Var.set_of_list
let sat m f = Formula.eval (fun x -> Var.Set.mem x m) f

let sym_diff m n =
  Var.Set.union (Var.Set.diff m n) (Var.Set.diff n m)

let restrict alphabet m = Var.Set.inter m alphabet

let subsets alphabet =
  let arr = Array.of_list alphabet in
  let n = Array.length arr in
  if n > 25 then
    invalid_arg
      (Printf.sprintf
         "Interp.subsets: alphabet has %d letters, limit is 25 (2^n list \
          materialization; the shift bound is lint rule R2. Use the \
          SAT-backed Models.enumerate — or the wide engine \
          Models.enumerate_wide past %d letters — for larger alphabets)"
         n (Sys.int_size - 1));
  let out = ref [] in
  for code = (1 lsl n) - 1 downto 0 do
    let s = ref Var.Set.empty in
    for i = 0 to n - 1 do
      if code land (1 lsl i) <> 0 then s := Var.Set.add arr.(i) !s
    done;
    out := !s :: !out
  done;
  !out

let dedup sets = List.sort_uniq Var.Set.compare sets

let min_incl sets =
  let sets = dedup sets in
  List.filter
    (fun s ->
      not
        (List.exists
           (fun s' -> (not (Var.Set.equal s s')) && Var.Set.subset s' s)
           sets))
    sets

let equal = Var.Set.equal
let pp = Var.pp_set

let minterm alphabet m =
  Formula.and_
    (List.map (fun x -> Formula.lit (Var.Set.mem x m) x) alphabet)
