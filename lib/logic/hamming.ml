let check_same_length xs ys =
  if List.length xs <> List.length ys then
    invalid_arg "Hamming: vectors of different lengths"

let diff_lit x y = Formula.xor (Formula.var x) (Formula.var y)

(* One build's auxiliaries, numbered [prefix0], [prefix1], ... apart
   from [avoid] and the compared [vectors]: [define rhs] names the next
   one [w], records [w <-> rhs] and returns [w]; [built ()] reads back
   the definitions and the letters in order. *)
let definitions ~avoid prefix vectors =
  let next =
    Var.numbered
      ~avoid:(Var.Set.union avoid (Var.set_of_list (List.concat vectors)))
      prefix
  in
  let defs = ref [] and aux = ref [] in
  let define rhs =
    let w = next () in
    aux := w :: !aux;
    defs := Formula.iff (Formula.var w) rhs :: !defs;
    Formula.var w
  in
  (define, fun () -> (List.rev !defs, List.rev !aux))

let exa ~avoid k xs ys =
  check_same_length xs ys;
  let n = List.length xs in
  if k < 0 || k > n then (Formula.bot, [])
  else begin
    let define, built = definitions ~avoid "_exa" [ xs; ys ] in
    (* d.(i): position i differs *)
    let d =
      Array.of_list (List.map2 (fun x y -> define (diff_lit x y)) xs ys)
    in
    (* cell.(i).(j): exactly j of the first i+1 positions differ (j <= k).
       "First 0 positions" is the constant boundary: exactly 0 holds,
       exactly m > 0 does not. *)
    let cell = Array.make_matrix (max n 1) (k + 1) Formula.bot in
    (* exactly j among the first i positions, for already-filled rows *)
    let row_before i j =
      if j < 0 || j > i || j > k then Formula.bot
      else if i = 0 then if j = 0 then Formula.top else Formula.bot
      else cell.(i - 1).(j)
    in
    for i = 0 to n - 1 do
      for j = 0 to min (i + 1) k do
        let rhs =
          Formula.or_
            [
              Formula.conj2 (row_before i j) (Formula.not_ d.(i));
              Formula.conj2 (row_before i (j - 1)) d.(i);
            ]
        in
        cell.(i).(j) <- define rhs
      done
    done;
    let result = if n = 0 then Formula.top (* k = 0 here *) else cell.(n - 1).(k) in
    let defs, aux = built () in
    (Formula.and_ (defs @ [ result ]), aux)
  end

let rec choose k lst =
  if k = 0 then [ [] ]
  else
    match lst with
    | [] -> []
    | x :: rest ->
        List.map (fun c -> x :: c) (choose (k - 1) rest) @ choose k rest

let exa_direct k xs ys =
  check_same_length xs ys;
  let pairs = List.combine xs ys in
  let n = List.length pairs in
  if k < 0 || k > n then Formula.bot
  else
    let indexed = List.mapi (fun i p -> (i, p)) pairs in
    let subsets = choose k indexed in
    Formula.or_
      (List.map
         (fun chosen ->
           let chosen_idx = List.map fst chosen in
           Formula.and_
             (List.map
                (fun (i, (x, y)) ->
                  if List.mem i chosen_idx then diff_lit x y
                  else Formula.not_ (diff_lit x y))
                indexed))
         subsets)

let dist_lt_direct (a, b) (c, d) =
  check_same_length a b;
  check_same_length c d;
  let k1 = List.length a and k2 = List.length c in
  let terms = ref [] in
  for j1 = 0 to k1 do
    for j2 = j1 + 1 to k2 do
      terms := Formula.conj2 (exa_direct j1 a b) (exa_direct j2 c d) :: !terms
    done
  done;
  Formula.or_ (List.rev !terms)

let pointwise_diff_subset s1 s2 s3 s4 =
  check_same_length s1 s2;
  check_same_length s3 s4;
  if List.length s1 <> List.length s3 then
    invalid_arg "Hamming.pointwise_diff_subset: widths differ";
  let rec go s1 s2 s3 s4 =
    match (s1, s2, s3, s4) with
    | [], [], [], [] -> []
    | a :: s1, b :: s2, c :: s3, d :: s4 ->
        Formula.imp (diff_lit a b) (diff_lit c d) :: go s1 s2 s3 s4
    | _ -> assert false
  in
  Formula.and_ (go s1 s2 s3 s4)

(* "At least [j]" from a sorted unary count vector; [j = 0] is true. *)
let at_least v j =
  if j = 0 then Formula.top
  else if j > List.length v then Formula.bot
  else List.nth v (j - 1)

(* Totalizer: recursively merge unary ("sorted") count vectors.  A leaf
   is the single difference bit [d_i]; merging two sorted vectors [a]
   (length la) and [b] (length lb) yields [r] of length la + lb with
   r_j <-> OR_{p+q=j, p<=la, q<=lb} (a_p /\ b_q), where a_0 = true.
   Every leaf and every r_j is named by [define]; returns the sorted
   vector. *)
let unary_counter define xs ys =
  let leaves = List.map2 (fun x y -> [ define (diff_lit x y) ]) xs ys in
  let merge a b =
    let la = List.length a and lb = List.length b in
    List.init (la + lb) (fun j0 ->
        let j = j0 + 1 in
        let cases = ref [] in
        for p = 0 to min j la do
          let q = j - p in
          if q >= 0 && q <= lb then
            cases := Formula.conj2 (at_least a p) (at_least b q) :: !cases
        done;
        define (Formula.or_ !cases))
  in
  let rec build = function
    | [] -> []
    | [ v ] -> v
    | vs ->
        let rec pair = function
          | a :: b :: rest -> merge a b :: pair rest
          | [ a ] -> [ a ]
          | [] -> []
        in
        build (pair vs)
  in
  build leaves

(* "Exactly k" is [s_k /\ ~s_{k+1}] on the totalizer's sorted output. *)
let exa_totalizer ~avoid k xs ys =
  check_same_length xs ys;
  let n = List.length xs in
  if k < 0 || k > n then (Formula.bot, [])
  else if n = 0 then (Formula.top, [])
  else begin
    let define, built = definitions ~avoid "_tot" [ xs; ys ] in
    let sorted = unary_counter define xs ys in
    let exactly =
      Formula.conj2 (at_least sorted k)
        (Formula.not_ (at_least sorted (k + 1)))
    in
    let defs, aux = built () in
    (Formula.and_ (defs @ [ exactly ]), aux)
  end

(* Polynomial comparison via two unary counters: count1 < count2 iff the
   sorted vectors witness some threshold reached by the second but not
   the first.  The two counters share one numbering. *)
let dist_lt ~avoid (a, b) (c, d) =
  check_same_length a b;
  check_same_length c d;
  if a = [] && c = [] then (Formula.bot, [])
  else begin
    let define, built = definitions ~avoid "_cnt" [ a; b; c; d ] in
    let v1 = unary_counter define a b in
    let v2 = unary_counter define c d in
    let width = max (List.length v1) (List.length v2) in
    let lt =
      Formula.or_
        (List.init width (fun j0 ->
             let j = j0 + 1 in
             Formula.conj2 (at_least v2 j)
               (Formula.not_ (at_least v1 j))))
    in
    let defs, aux = built () in
    (Formula.and_ (defs @ [ lt ]), aux)
  end
