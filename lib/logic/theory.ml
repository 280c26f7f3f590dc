type t = Formula.t list

let conj = Formula.and_

let vars t =
  List.fold_left
    (fun acc f -> Var.Set.union acc (Formula.vars f))
    Var.Set.empty t

let size t = List.fold_left (fun acc f -> acc + Formula.size f) 0 t
let of_string = Parser.theory_of_string

let pp ppf t =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Formula.pp)
    t
