(* Implicants are cubes over n variables, encoded as [(value, mask)]:
   [mask] bits are don't-cares, and [value land lnot mask] identifies the
   fixed bits.  A cube covers minterm [m] iff [m land lnot mask = value
   land lnot mask]. *)

type cube = { value : int; mask : int }

(* Cubes live in one int: the public entry points reject alphabets past
   20 letters, and these asserted helpers keep every internal shift
   inside that bound. *)
let bit i =
  assert (i <= 20);
  1 lsl i

let full_mask n =
  assert (n <= 20);
  (1 lsl n) - 1

let covers n cube m =
  let care = lnot cube.mask land full_mask n in
  m land care = cube.value land care

(* One pass of pairwise combination: cubes with identical masks whose
   values differ in exactly one care bit merge into a cube with that bit
   masked. Returns (primes_of_this_level, next_level). *)
let combine_level n cubes =
  let module CS = Set.Make (struct
    type t = cube

    let compare = compare
  end) in
  let used = Hashtbl.create 64 in
  let next = ref CS.empty in
  let arr = Array.of_list cubes in
  let len = Array.length arr in
  for i = 0 to len - 1 do
    for j = i + 1 to len - 1 do
      let a = arr.(i) and b = arr.(j) in
      if a.mask = b.mask then begin
        let care = lnot a.mask land full_mask n in
        let diff = (a.value lxor b.value) land care in
        if diff <> 0 && diff land (diff - 1) = 0 then begin
          Hashtbl.replace used a ();
          Hashtbl.replace used b ();
          next :=
            CS.add
              { value = a.value land lnot diff; mask = a.mask lor diff }
              !next
        end
      end
    done
  done;
  let primes = List.filter (fun c -> not (Hashtbl.mem used c)) cubes in
  (primes, CS.elements !next)

let prime_implicants n minterms =
  let rec go cubes acc =
    match cubes with
    | [] -> acc
    | _ ->
        let primes, next = combine_level n cubes in
        go next (primes @ acc)
  in
  go
    (List.sort_uniq compare
       (List.map (fun m -> { value = m; mask = 0 }) minterms))
    []

(* Cover selection: essential primes, then greedy by remaining coverage. *)
let select_cover n primes minterms =
  let primes = Array.of_list primes in
  let covers_of m =
    Array.to_list
      (Array.mapi (fun i c -> (i, covers n c m)) primes)
    |> List.filter_map (fun (i, b) -> if b then Some i else None)
  in
  let chosen = Hashtbl.create 16 in
  let remaining = ref [] in
  (* essential primes *)
  List.iter
    (fun m ->
      match covers_of m with
      | [ i ] -> Hashtbl.replace chosen i ()
      | _ -> ())
    minterms;
  remaining :=
    List.filter
      (fun m ->
        not
          (Hashtbl.fold
             (fun i () acc -> acc || covers n primes.(i) m)
             chosen false))
      minterms;
  (* greedy *)
  while !remaining <> [] do
    let best = ref (-1) and best_cov = ref (-1) in
    Array.iteri
      (fun i c ->
        if not (Hashtbl.mem chosen i) then begin
          let cov =
            List.length (List.filter (fun m -> covers n c m) !remaining)
          in
          if cov > !best_cov then begin
            best := i;
            best_cov := cov
          end
        end)
      primes;
    assert (!best >= 0);
    Hashtbl.replace chosen !best ();
    remaining :=
      List.filter (fun m -> not (covers n primes.(!best) m)) !remaining
  done;
  Hashtbl.fold (fun i () acc -> primes.(i) :: acc) chosen []

let to_mask alphabet m =
  let _, code =
    List.fold_left
      (fun (i, code) x ->
        (i + 1, if Var.Set.mem x m then code lor bit i else code))
      (0, 0) alphabet
  in
  code

let cube_to_formula alphabet cube =
  let lits =
    List.mapi
      (fun i x ->
        if cube.mask land bit i <> 0 then None
        else Some (Formula.lit (cube.value land bit i <> 0) x))
      alphabet
    |> List.filter_map Fun.id
  in
  Formula.and_ lits

(* A minimized DNF of sorted, duplicate-free minterm codes. *)
let dnf_of_codes alphabet minterms =
  match minterms with
  | [] -> Formula.bot
  | _ when List.length minterms = bit (List.length alphabet) -> Formula.top
  | _ ->
      let n = List.length alphabet in
      let primes = prime_implicants n minterms in
      let cover = select_cover n primes minterms in
      Formula.or_ (List.map (cube_to_formula alphabet) cover)

let minimize alphabet models =
  if List.length alphabet > 20 then invalid_arg "Qmc.minimize: alphabet too large";
  dnf_of_codes alphabet (List.sort_uniq compare (List.map (to_mask alphabet) models))

let minimized_size alphabet models = Formula.size (minimize alphabet models)

(* The minimized CNF of a model set is the negation of the minimized DNF
   of its complement, one clause per cube over the same letter
   occurrences, so its size is that DNF's size. *)
let minimized_cnf_size alphabet models =
  let n = List.length alphabet in
  if n > 20 then invalid_arg "Qmc.minimized_cnf_size: alphabet too large";
  let codes = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace codes (to_mask alphabet m) ()) models;
  let complement =
    List.filter (fun c -> not (Hashtbl.mem codes c)) (List.init (1 lsl n) Fun.id)
  in
  Formula.size (dnf_of_codes alphabet complement)
