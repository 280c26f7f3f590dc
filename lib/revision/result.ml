open Logic

type t = { alphabet : Var.t list; models : Interp.t list }

let make alphabet models =
  { alphabet; models = List.sort_uniq Var.Set.compare models }

let alphabet r = r.alphabet
let models r = r.models
let model_count r = List.length r.models
let entails r q = List.for_all (fun m -> Interp.sat m q) r.models

let model_check r m =
  let m = Interp.restrict (Var.set_of_list r.alphabet) m in
  List.exists (Interp.equal m) r.models

let to_dnf r = Models.dnf_of_models r.alphabet r.models
let to_minimized_dnf r = Qmc.minimize r.alphabet r.models

let equal a b =
  Var.Set.equal (Var.set_of_list a.alphabet) (Var.set_of_list b.alphabet)
  && List.length a.models = List.length b.models
  && List.for_all2 Interp.equal a.models b.models

let pp ppf r =
  Format.fprintf ppf "@[<v>%d model(s) over {%a}:@,%a@]"
    (List.length r.models)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Var.pp)
    r.alphabet
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Interp.pp)
    r.models
