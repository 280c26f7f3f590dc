type t = int

let of_var ?(neg = false) v =
  assert (v >= 0);
  (2 * v) + if neg then 1 else 0

let var l = l lsr 1
let neg l = l lxor 1
let is_pos l = l land 1 = 0

let of_int i =
  if i = 0 then invalid_arg "Lit.of_int: zero"
  else if i > 0 then of_var (i - 1)
  else of_var ~neg:true (-i - 1)
