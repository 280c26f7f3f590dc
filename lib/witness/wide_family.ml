open Logic

type t = { n : int; m : int; t_wide : Formula.t; p_wide : Formula.t }

let var i = Var.named (Printf.sprintf "w%d" i)

let make ~n ~m =
  if m < 1 || m > n then invalid_arg "Wide_family.make: 1 <= m <= n";
  if m > Sys.int_size - 2 then
    invalid_arg "Wide_family.make: m too wide for an int world count";
  let x i = Formula.var (var i) in
  let low = List.init m (fun i -> x (i + 1)) in
  let high = List.init (n - m) (fun i -> x (m + i + 1)) in
  let t_wide = Formula.and_ (low @ high) in
  let p_wide =
    Formula.and_ (Formula.or_ (List.map Formula.not_ low) :: high)
  in
  { n; m; t_wide; p_wide }

let letters fam = List.init fam.n (fun i -> var (i + 1))
(* lint: shift-ok make rejects m > Sys.int_size - 2 *)
let expected_world_count fam = (1 lsl fam.m) - 1
let world_count fam = Models.count (letters fam) fam.p_wide

let naive_size fam =
  let alphabet = letters fam in
  Formula.size
    (Models.dnf_of_models alphabet (Models.enumerate alphabet fam.p_wide))
