let pick st l = List.nth l (Random.State.int st (List.length l))

let literal st vars =
  let x = pick st vars in
  if Random.State.bool st then Formula.var x else Formula.not_ (Formula.var x)

let rec formula st ~vars ~depth =
  if depth <= 0 || Random.State.int st 100 < 15 then
    if Random.State.int st 100 < 5 then
      if Random.State.bool st then Formula.top else Formula.bot
    else literal st vars
  else begin
    let sub () = formula st ~vars ~depth:(depth - 1) in
    match Random.State.int st 6 with
    | 0 -> Formula.not_ (sub ())
    | 1 -> Formula.and_ (List.init (2 + Random.State.int st 2) (fun _ -> sub ()))
    | 2 -> Formula.or_ (List.init (2 + Random.State.int st 2) (fun _ -> sub ()))
    | 3 -> Formula.imp (sub ()) (sub ())
    | 4 -> Formula.iff (sub ()) (sub ())
    | _ -> Formula.xor (sub ()) (sub ())
  end

let theory st ~vars ~members ~depth =
  List.init members (fun _ -> formula st ~vars ~depth)

let clause3 st ~vars =
  if List.length vars < 3 then invalid_arg "Gen.clause3: need >= 3 letters";
  let rec distinct acc =
    if List.length acc = 3 then acc
    else begin
      let x = pick st vars in
      if List.mem x acc then distinct acc else distinct (x :: acc)
    end
  in
  Formula.or_ (List.map (fun x -> literal st [ x ]) (distinct []))

let cnf3 st ~vars ~nclauses =
  Formula.and_ (List.init nclauses (fun _ -> clause3 st ~vars))

let letters ?(prefix = "x") n =
  List.init n (fun i -> Var.named (Printf.sprintf "%s%d" prefix (i + 1)))

