(* Word-boundary sweep: the packed engines on either side of the
   one-word width (62 letters on 64-bit).

   For each width straddling the boundary the same Wide_family instance
   runs through (a) wide enumeration, and where the alphabet still fits
   one word, one-word enumeration — the two sets must agree mask for
   mask; (b) all five distance measures and all six operators through
   the width-dispatching wrappers, checked against the legacy list
   oracle on the identical explicit model lists.  Any disagreement fails
   the bench: a timing row for a wrong answer is worthless.  Rows land
   in the JSON artifact (REVKB_BENCH_JSON, default BENCH_parallel.json;
   CI points it at BENCH_boundary.json). *)

open Logic
module MB = Revision.Model_based
module Dist = Revision.Distance
module Legacy = Revkb_oracle.Legacy

let widths = [ 61; 62; 63; 64; 65; 100 ]

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

let fail n what =
  failwith (Printf.sprintf "boundary: %s disagrees at n=%d" what n)

let same_interp_lists a b =
  let norm = List.sort_uniq Var.Set.compare in
  let a = norm a and b = norm b in
  List.length a = List.length b && List.for_all2 Var.Set.equal a b

let same_diff_lists a b =
  let norm = List.sort_uniq Var.Set.compare in
  let a = norm a and b = norm b in
  List.length a = List.length b && List.for_all2 Var.Set.equal a b

let check_against_oracle n t_models p_models =
  List.iter
    (fun op ->
      if
        not
          (same_interp_lists
             (MB.select op t_models p_models)
             (Legacy.Model_based.select op t_models p_models))
      then fail n ("operator " ^ MB.name op))
    MB.all;
  let m = List.hd t_models in
  if
    not (same_diff_lists (Dist.mu m p_models) (Legacy.Distance.mu m p_models))
  then fail n "mu";
  if Dist.k_pointwise m p_models <> Legacy.Distance.k_pointwise m p_models
  then fail n "k_pointwise";
  if
    not
      (same_diff_lists
         (Dist.delta t_models p_models)
         (Legacy.Distance.delta t_models p_models))
  then fail n "delta";
  if
    Dist.k_global t_models p_models
    <> Legacy.Distance.k_global t_models p_models
  then fail n "k_global";
  if
    not
      (Var.Set.equal
         (Dist.omega t_models p_models)
         (Legacy.Distance.omega t_models p_models))
  then fail n "omega"

let row n =
  let fam = Witness.Wide_family.make ~n ~m:4 in
  let letters = Witness.Wide_family.letters fam in
  let alpha = Interp_packed.alphabet letters in
  let wide_set, wide_ms =
    time (fun () ->
        Models.enumerate_wide alpha fam.Witness.Wide_family.p_wide)
  in
  if Array.length wide_set <> Witness.Wide_family.expected_world_count fam
  then fail n "wide model count";
  let one_ms =
    if not (Interp_packed.fits alpha) then None
    else begin
      let packed, ms =
        time (fun () ->
            Models.enumerate_packed alpha fam.Witness.Wide_family.p_wide)
      in
      if
        not
          (Interp_wide.equal_set
             (Interp_wide.set_of_masks alpha packed)
             wide_set)
      then fail n "one-word vs multi-word enumeration";
      Some ms
    end
  in
  let t_models = Models.enumerate letters fam.Witness.Wide_family.t_wide in
  let p_models = Models.enumerate letters fam.Witness.Wide_family.p_wide in
  check_against_oracle n t_models p_models;
  if
    Dist.k_global t_models p_models
    <> Witness.Wide_family.expected_dalal_distance
  then fail n "expected Dalal distance";
  Json_out.add ~bench:"boundary/enumerate-wide" ~n
    ~jobs:(Revkb_parallel.Pool.default_jobs ())
    ~wall_ms:wide_ms
    ~speedup:
      (match one_ms with Some one -> one /. wide_ms | None -> 1.0)
    ();
  (match one_ms with
  | Some one ->
      Json_out.add ~bench:"boundary/enumerate-one-word" ~n
        ~jobs:(Revkb_parallel.Pool.default_jobs ())
        ~wall_ms:one ~speedup:1.0 ()
  | None -> ());
  [
    string_of_int n;
    string_of_int (Array.length wide_set);
    Printf.sprintf "%.2f ms" wide_ms;
    (match one_ms with
    | Some one -> Printf.sprintf "%.2f ms" one
    | None -> "- (multi-word only)");
    "ok";
  ]

let run () =
  Report.section "Word boundary: one-word vs multi-word packed engines";
  Report.para
    "  Same instances swept across the 62-letter word boundary: wide\n\
    \  enumeration vs the one-word engine where it still applies, and\n\
    \  every distance/operator wrapper vs the legacy list oracle.";
  flush stdout;
  Report.table
    [ "n"; "|Mod(P)|"; "wide"; "one-word"; "agree" ]
    (List.map row widths);
  Json_out.write ()
