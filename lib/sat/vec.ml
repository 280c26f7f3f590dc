type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }
let map f v = { data = Array.init v.size (fun i -> f v.data.(i)); size = v.size }

let size v = v.size

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

let shrink v n =
  if n < 0 || n > v.size then invalid_arg "Vec.shrink";
  v.size <- n

let iter f v =
  for i = 0 to v.size - 1 do
    f (Array.unsafe_get v.data i)
  done

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
