type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }

let size v = v.size
let is_empty v = v.size = 0

let get v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.get";
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.size then invalid_arg "Vec.set";
  Array.unsafe_set v.data i x

let grow v x =
  let cap = Array.length v.data in
  let cap' = max 4 (2 * cap) in
  let data' = Array.make cap' x in
  Array.blit v.data 0 data' 0 v.size;
  v.data <- data'

let push v x =
  if v.size = Array.length v.data then grow v x;
  Array.unsafe_set v.data v.size x;
  v.size <- v.size + 1

let pop v =
  if v.size = 0 then invalid_arg "Vec.pop";
  v.size <- v.size - 1;
  Array.unsafe_get v.data v.size

let last v =
  if v.size = 0 then invalid_arg "Vec.last";
  Array.unsafe_get v.data (v.size - 1)

let clear v = v.size <- 0

let shrink v n =
  if n < 0 || n > v.size then invalid_arg "Vec.shrink";
  v.size <- n

let iter f v =
  for i = 0 to v.size - 1 do
    f (Array.unsafe_get v.data i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.size - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let exists p v =
  let rec go i = i < v.size && (p (Array.unsafe_get v.data i) || go (i + 1)) in
  go 0

let to_list v =
  let rec go i acc = if i < 0 then acc else go (i - 1) (get v i :: acc) in
  go (v.size - 1) []

let of_list l =
  let v = create () in
  List.iter (push v) l;
  v

let filter_in_place p v =
  let j = ref 0 in
  for i = 0 to v.size - 1 do
    let x = Array.unsafe_get v.data i in
    if p x then begin
      Array.unsafe_set v.data !j x;
      incr j
    end
  done;
  v.size <- !j

let swap_remove v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.swap_remove";
  v.size <- v.size - 1;
  if i < v.size then Array.unsafe_set v.data i (Array.unsafe_get v.data v.size)
