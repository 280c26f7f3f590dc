let alphabet_of fs =
  let vs =
    List.fold_left
      (fun acc f -> Var.Set.union acc (Formula.vars f))
      Var.Set.empty fs
  in
  Var.Set.elements vs

let sat_cutover = 20

let check_alphabet name alphabet f =
  let missing = Var.Set.diff (Formula.vars f) (Var.set_of_list alphabet) in
  if not (Var.Set.is_empty missing) then
    invalid_arg
      (Format.asprintf "%s: letters %a not in alphabet" name Var.pp_set
         missing)

(* Letters outside the alphabet read false, as in Interp.sat over
   alphabet-restricted interpretations: pin them before a SAT query. *)
let assign_false_outside alphabet f =
  let inside = Var.set_of_list alphabet in
  let outside = Var.Set.diff (Formula.vars f) inside in
  if Var.Set.is_empty outside then f
  else
    Formula.assign_vars
      (Var.Set.fold (fun x acc -> Var.Map.add x false acc) outside
         Var.Map.empty)
      f

(* One span per enumeration covers both engines; the model counter sums
   what every enumeration in the process produced. *)
let c_models = Revkb_obs.Obs.counter "enum.models"

(* Below the cutover the one-word sweep runs and its masks convert for
   free (one word is the degenerate wide layout); above it the SAT walk
   reads masks of the requested representation directly, so no width
   ever leaves the packed representation. *)
let enumerate_masks (type m) (module M : Mask.S with type t = m) ?cap alpha f
    : M.set =
  check_alphabet "Models.enumerate" (Interp_packed.letters alpha) f;
  let set =
    Revkb_obs.Obs.with_span "models.enumerate"
      ~attrs:(fun () -> [ ("n", string_of_int (Interp_packed.size alpha)) ])
      (fun () ->
        if Interp_packed.size alpha <= sat_cutover then
          M.of_packed alpha (Interp_packed.sweep alpha f)
        else Semantics.masks_sat (module M) ?cap alpha f)
  in
  Revkb_obs.Obs.add c_models (Array.length set);
  set

let enumerate_packed ?cap alpha f =
  enumerate_masks (module Mask.Packed) ?cap alpha f

let enumerate_wide ?cap alpha f =
  enumerate_masks (module Mask.Wide) ?cap alpha f

let enumerate alphabet f =
  let n = List.length alphabet in
  if n <= sat_cutover then
    let alpha = Interp_packed.alphabet alphabet in
    Interp_packed.interps_of_set alpha (enumerate_packed alpha f)
  else begin
    let alpha = Interp_packed.alphabet alphabet in
    let (module M) = Mask.engine alpha in
    let ms = M.interps_of_set alpha (enumerate_masks (module M) alpha f) in
    (* Documented contract above the cutover: Var.Set.compare order, not
       counter order. *)
    List.sort Var.Set.compare ms
  end

let count ?cap alphabet f =
  check_alphabet "Models.count" alphabet f;
  let n = List.length alphabet in
  if n <= sat_cutover then
    (* A popcount per block of the word-parallel sweep: no model is
       ever unpacked (or even stored). *)
    Interp_packed.count (Interp_packed.alphabet alphabet) f
  else if not (Semantics.is_sat (assign_false_outside alphabet f)) then 0
  else
    (* Above the cutover: walk the models through the SAT enumerator's
       blocking clauses, tallying multi-word masks without ever storing
       one.  The walk is capped (default 1_000_000) and raises an
       actionable [Invalid_argument] past the cap, so a formula whose
       model set really is astronomical fails loudly instead of looping;
       the preceding one-SAT-call zero check keeps the common
       unsatisfiable case free. *)
    Semantics.count_sat ?cap (Interp_packed.alphabet alphabet) f

(* Below the cutover both checks look for a counter-model block by
   block: [a] and [b] differ where [a xor b] holds, and [a] fails to
   entail [b] where [a & ~b] does. *)
let equivalent_on alphabet a b =
  if List.length alphabet <= sat_cutover then
    not
      (Interp_packed.satisfiable
         (Interp_packed.alphabet alphabet)
         (Formula.xor a b))
  else
    Semantics.equiv
      (assign_false_outside alphabet a)
      (assign_false_outside alphabet b)

let entails_on alphabet a b =
  if List.length alphabet <= sat_cutover then
    not
      (Interp_packed.satisfiable
         (Interp_packed.alphabet alphabet)
         (Formula.conj2 a (Formula.not_ b)))
  else
    Semantics.entails
      (assign_false_outside alphabet a)
      (assign_false_outside alphabet b)

let project sub models =
  List.sort_uniq Var.Set.compare (List.map (Interp.restrict sub) models)

let dnf_of_models alphabet models =
  Formula.or_ (List.map (Interp.minterm alphabet) models)
