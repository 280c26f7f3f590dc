type fit = {
  poly_degree : float;
  poly_r2 : float;
  exp_rate : float;
  exp_r2 : float;
}

type verdict = Polynomial of float | Superpolynomial of float

(* Ordinary least squares y = a·x + b; returns (slope, r²).  A constant
   series has zero variance: report slope 0 with a perfect fit. *)
let least_squares pts =
  let n = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
  let mx = sx /. n and my = sy /. n in
  let sxx = List.fold_left (fun a (x, _) -> a +. ((x -. mx) ** 2.)) 0. pts in
  let syy = List.fold_left (fun a (_, y) -> a +. ((y -. my) ** 2.)) 0. pts in
  let sxy =
    List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0. pts
  in
  if sxx = 0. then (0., 0.)
  else if syy = 0. then (0., 1.)
  else
    let slope = sxy /. sxx in
    let r2 = sxy *. sxy /. (sxx *. syy) in
    (slope, r2)

let fit pts =
  if List.length pts < 3 then invalid_arg "Growth.classify_points: need >= 3 points";
  let logv v = log (max 1. v) in
  let poly_degree, poly_r2 =
    least_squares (List.map (fun (n, v) -> (log (max 1e-9 n), logv v)) pts)
  in
  let exp_rate, exp_r2 =
    least_squares (List.map (fun (n, v) -> (n, logv v)) pts)
  in
  { poly_degree; poly_r2; exp_rate; exp_r2 }

let classify f =
  (* The exponential hypothesis wins when it fits better and implies
     vigorous growth (a true exponential doubles every step or two), or
     when it fits distinctly better at any nontrivial rate.  Both legs
     guard on the rate because over a short sweep a slow affine series
     fits both hypotheses near-perfectly — r² alone cannot separate
     them, the implied rate can.  An absurd fitted degree is also
     treated as superpolynomial regardless of fit quality. *)
  if
    (f.exp_r2 > f.poly_r2 && f.exp_rate > 0.5)
    || (f.exp_r2 > f.poly_r2 +. 0.02 && f.exp_rate > 0.1)
    || f.poly_degree > 8.
  then Superpolynomial f.exp_rate
  else Polynomial f.poly_degree

let classify_points pts = classify (fit pts)

let pp_verdict ppf = function
  | Polynomial d -> Format.fprintf ppf "polynomial (deg %.1f)" d
  | Superpolynomial r ->
      Format.fprintf ppf "superpolynomial (x%.1f per step)" (exp r)
