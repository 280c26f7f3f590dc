(* Plain-text table rendering for the benchmark reports.  Every table and
   figure of the paper is regenerated as one of these reports; the format
   is fixed-width so EXPERIMENTS.md can quote outputs verbatim. *)

let line width = String.make width '-'

let section title =
  let bar = String.make (String.length title + 4) '=' in
  Printf.printf "\n%s\n= %s =\n%s\n" bar title bar

let subsection title = Printf.printf "\n--- %s ---\n" title

let para text = Printf.printf "%s\n" text

(* A table is a header row plus data rows; column widths are computed. *)
let table ?(indent = 2) headers rows =
  let cols = List.length headers in
  let width i =
    List.fold_left
      (fun acc row -> max acc (String.length (List.nth row i)))
      (String.length (List.nth headers i))
      rows
  in
  let widths = List.init cols width in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let render_row row =
    Printf.printf "%s%s\n" (String.make indent ' ')
      (String.concat "  " (List.map2 pad row widths))
  in
  render_row headers;
  Printf.printf "%s%s\n" (String.make indent ' ')
    (line (List.fold_left ( + ) (2 * (cols - 1)) widths));
  List.iter render_row rows

let verdict b = if b then "YES" else "NO"
(* Every paper self-check row of the run; [bench/main.exe] exits 1
   after its sections when any of them failed. *)
let failed_checks = Atomic.make 0

let check b =
  if b then "ok"
  else begin
    Atomic.incr failed_checks;
    "FAIL"
  end

(* Growth classification for a size sequence paired with a parameter
   sequence: compares last-step growth ratios of value vs parameter.  A
   crude but honest poly-vs-exp discriminator for the sweeps we print. *)
let classify_growth params values =
  match (params, values) with
  | p0 :: _, v0 :: _ when List.length params >= 3 ->
      let pn = List.nth params (List.length params - 1) in
      let vn = List.nth values (List.length values - 1) in
      let p_ratio = float_of_int pn /. float_of_int (max p0 1) in
      let v_ratio = float_of_int vn /. float_of_int (max v0 1) in
      (* polynomial of degree d: v_ratio ≈ p_ratio^d; flag exponential when
         the implied degree exceeds 6 *)
      let degree = log v_ratio /. log (max p_ratio 1.0001) in
      if degree > 6.0 then Printf.sprintf "exponential-like (deg %.1f)" degree
      else Printf.sprintf "polynomial-like (deg %.1f)" degree
  | _ -> "n/a"
