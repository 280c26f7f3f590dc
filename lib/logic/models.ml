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

(* The legacy list engine is a differential oracle, not a production
   fallback: every production path now has a packed one-word or
   multi-word route.  Any entry here still bumps a fallback counter (and
   says so once on stderr under --stats), so a future caller silently
   routing hot traffic through the list pipeline shows up in every
   snapshot and trace instead of just running 100x slower. *)
(* lint: obs-ok shared with Model_based.Legacy: every legacy entry
   point bumps the same counter so one snapshot shows them all *)
let c_fallback_legacy = Revkb_obs.Obs.counter "models.fallback.legacy"

let legacy_note =
  lazy
    (prerr_endline
       "revkb: note: legacy list-pipeline engine entered \
        (models.fallback.legacy) — expected only from differential oracles \
        and old-vs-new benchmarks")

let note_legacy () =
  Revkb_obs.Obs.incr c_fallback_legacy;
  if Revkb_obs.Obs.enabled () then Lazy.force legacy_note

module Legacy = struct
  let enumerate alphabet f =
    note_legacy ();
    check_alphabet "Models.enumerate" alphabet f;
    List.filter (fun m -> Interp.sat m f) (Interp.subsets alphabet)

  let equivalent_on alphabet a b =
    note_legacy ();
    List.for_all
      (fun m -> Interp.sat m a = Interp.sat m b)
      (Interp.subsets alphabet)

  let entails_on alphabet a b =
    note_legacy ();
    List.for_all
      (fun m -> (not (Interp.sat m a)) || Interp.sat m b)
      (Interp.subsets alphabet)
end

(* One span per enumeration covers both engines; the model counter sums
   what every enumeration in the process produced. *)
let c_models = Revkb_obs.Obs.counter "enum.models"

let enumerate_packed ?cap alpha f =
  check_alphabet "Models.enumerate" (Interp_packed.letters alpha) f;
  let set =
    Revkb_obs.Obs.with_span "models.enumerate"
      ~attrs:(fun () -> [ ("n", string_of_int (Interp_packed.size alpha)) ])
      (fun () ->
        if Interp_packed.size alpha <= sat_cutover then
          Interp_packed.sweep alpha f
        else Semantics.masks_sat ?cap alpha f)
  in
  Revkb_obs.Obs.add c_models (Array.length set);
  set

(* Multi-word enumeration: the packed pipeline's entry point past
   [Interp_packed.max_letters].  Below the cutover the one-word sweep
   runs and its masks widen for free (one word is the degenerate wide
   layout); everything else walks the SAT enumerator reading wide masks
   directly, so no width ever leaves the packed representation. *)
let enumerate_wide ?cap alpha f =
  check_alphabet "Models.enumerate" (Interp_packed.letters alpha) f;
  let set =
    Revkb_obs.Obs.with_span "models.enumerate"
      ~attrs:(fun () -> [ ("n", string_of_int (Interp_packed.size alpha)) ])
      (fun () ->
        if Interp_packed.size alpha <= sat_cutover then
          Interp_wide.set_of_masks alpha
            (Interp_packed.sweep alpha f)
        else Semantics.masks_sat_wide ?cap alpha f)
  in
  Revkb_obs.Obs.add c_models (Array.length set);
  set

let enumerate alphabet f =
  let n = List.length alphabet in
  if n <= sat_cutover then
    let alpha = Interp_packed.alphabet alphabet in
    Interp_packed.interps_of_set alpha (enumerate_packed alpha f)
  else begin
    check_alphabet "Models.enumerate" alphabet f;
    let alpha = Interp_packed.alphabet alphabet in
    let ms =
      if Interp_packed.fits alpha then
        Interp_packed.interps_of_set alpha (enumerate_packed alpha f)
      else Interp_wide.interps_of_set alpha (enumerate_wide alpha f)
    in
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
