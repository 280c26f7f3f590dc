open Logic

type t =
  | Gfuv
  | Nebel of int list
  | Widtio
  | Winslett
  | Borgida
  | Forbus
  | Satoh
  | Dalal
  | Weber

let name = function
  | Gfuv -> "gfuv"
  | Nebel _ -> "nebel"
  | Widtio -> "widtio"
  | Winslett -> "winslett"
  | Borgida -> "borgida"
  | Forbus -> "forbus"
  | Satoh -> "satoh"
  | Dalal -> "dalal"
  | Weber -> "weber"

let of_name s =
  match String.lowercase_ascii s with
  | "gfuv" -> Some Gfuv
  | "nebel" -> Some (Nebel [])
  | "widtio" -> Some Widtio
  | s -> (
      match Model_based.of_name s with
      | Some Model_based.Winslett -> Some Winslett
      | Some Model_based.Borgida -> Some Borgida
      | Some Model_based.Forbus -> Some Forbus
      | Some Model_based.Satoh -> Some Satoh
      | Some Model_based.Dalal -> Some Dalal
      | Some Model_based.Weber -> Some Weber
      | None -> None)

let is_model_based = function
  | Winslett | Borgida | Forbus | Satoh | Dalal | Weber -> true
  | Gfuv | Nebel _ | Widtio -> false

let model_op = function
  | Winslett -> Model_based.Winslett
  | Borgida -> Model_based.Borgida
  | Forbus -> Model_based.Forbus
  | Satoh -> Model_based.Satoh
  | Dalal -> Model_based.Dalal
  | Weber -> Model_based.Weber
  | Gfuv | Nebel _ | Widtio -> invalid_arg "Operator.model_op"

let partition sizes l =
  let rec go sizes l =
    match (sizes, l) with
    | [], [] -> []
    | [], rest -> [ rest ]
    | k :: sizes, l ->
        if k < 0 || k > List.length l then
          invalid_arg "Operator.partition: sizes overrun the list";
        let rec split i acc l =
          if i = 0 then (List.rev acc, l)
          else
            match l with
            | x :: rest -> split (i - 1) (x :: acc) rest
            | [] -> assert false
        in
        let cls, rest = split k [] l in
        cls :: go sizes rest
  in
  List.filter (fun c -> c <> []) (go sizes l)

let priorities_of sizes t =
  match partition sizes t with [] -> [ [] ] | ps -> ps

let revise op t p =
  match op with
  | Gfuv -> Formula_based.gfuv_revise t p
  | Nebel sizes ->
      Formula_based.nebel_revise ~priorities:(priorities_of sizes t) p
  | Widtio -> Formula_based.widtio_revise t p
  | _ -> Model_based.revise (model_op op) (Theory.conj t) p
