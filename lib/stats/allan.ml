type point = { m : int; tau : float; avar : float; neff : int }

(* Time-error integral of the fractional frequency samples:
   x.(0) = 0, x.(k) = tau0 * (y.(0) + ... + y.(k-1)). *)
let time_error ~tau0 y =
  let n = Array.length y in
  let x = Array.make (n + 1) 0.0 in
  for k = 0 to n - 1 do
    x.(k + 1) <- x.(k) +. (tau0 *. y.(k))
  done;
  x

let check_samples name need got =
  if got < need then
    invalid_arg (Printf.sprintf "Allan.%s: need >= %d samples, got %d" name need got)

let avar_overlapping ~tau0 ~m y =
  if m <= 0 then invalid_arg "Allan.avar_overlapping: m <= 0";
  let n = Array.length y in
  check_samples "avar_overlapping" (2 * m) n;
  let x = time_error ~tau0 y in
  let tau = tau0 *. float_of_int m in
  let terms = n - (2 * m) + 1 in
  let acc = ref 0.0 in
  for i = 0 to terms - 1 do
    let d = x.(i + (2 * m)) -. (2.0 *. x.(i + m)) +. x.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc /. (2.0 *. tau *. tau *. float_of_int terms)

let avar_nonoverlapping ~tau0 ~m y =
  if m <= 0 then invalid_arg "Allan.avar_nonoverlapping: m <= 0";
  let n = Array.length y in
  check_samples "avar_nonoverlapping" (2 * m) n;
  let x = time_error ~tau0 y in
  let tau = tau0 *. float_of_int m in
  let blocks = n / m in
  let terms = blocks - 1 in
  let acc = ref 0.0 in
  for j = 0 to terms - 1 do
    let i = j * m in
    let d = x.(i + (2 * m)) -. (2.0 *. x.(i + m)) +. x.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc /. (2.0 *. tau *. tau *. float_of_int terms)

let hvar_overlapping ~tau0 ~m y =
  if m <= 0 then invalid_arg "Allan.hvar_overlapping: m <= 0";
  let n = Array.length y in
  check_samples "hvar_overlapping" (3 * m) n;
  let x = time_error ~tau0 y in
  let tau = tau0 *. float_of_int m in
  let terms = n - (3 * m) + 1 in
  let acc = ref 0.0 in
  for i = 0 to terms - 1 do
    let d =
      x.(i + (3 * m))
      -. (3.0 *. x.(i + (2 * m)))
      +. (3.0 *. x.(i + m))
      -. x.(i)
    in
    acc := !acc +. (d *. d)
  done;
  !acc /. (6.0 *. tau *. tau *. float_of_int terms)

let mvar ~tau0 ~m y =
  if m <= 0 then invalid_arg "Allan.mvar: m <= 0";
  let n = Array.length y in
  check_samples "mvar" (3 * m) n;
  let x = time_error ~tau0 y in
  let tau = tau0 *. float_of_int m in
  let terms = n - (3 * m) + 1 in
  (* Moving sum of second differences, updated incrementally. *)
  let second_diff i = x.(i + (2 * m)) -. (2.0 *. x.(i + m)) +. x.(i) in
  let window = ref 0.0 in
  for i = 0 to m - 1 do
    window := !window +. second_diff i
  done;
  let acc = ref (!window *. !window) in
  for j = 1 to terms - 1 do
    window := !window -. second_diff (j - 1) +. second_diff (j + m - 1);
    acc := !acc +. (!window *. !window)
  done;
  let fm = float_of_int m in
  !acc /. (2.0 *. fm *. fm *. tau *. tau *. float_of_int terms)

let sweep ?(estimator = `Overlapping) ~tau0 ~ms y =
  let n = Array.length y in
  let points = ref [] in
  Array.iter
    (fun m ->
      if m > 0 && 2 * m <= n then begin
        let avar =
          match estimator with
          | `Overlapping -> avar_overlapping ~tau0 ~m y
          | `Nonoverlapping -> avar_nonoverlapping ~tau0 ~m y
        in
        let neff =
          match estimator with
          | `Overlapping -> n - (2 * m) + 1
          | `Nonoverlapping -> (n / m) - 1
        in
        points := { m; tau = tau0 *. float_of_int m; avar; neff } :: !points
      end)
    ms;
  Array.of_list (List.rev !points)

let octave_ms ~n =
  let rec collect acc m = if m > n / 4 then List.rev acc else collect (m :: acc) (m * 2) in
  Array.of_list (collect [] 1)

let confidence_interval ?(level = 0.683) point =
  if level <= 0.0 || level >= 1.0 then
    invalid_arg "Allan.confidence_interval: level outside (0,1)";
  let df = float_of_int (max 1 (point.neff / 2)) in
  (* Invert the chi-squared CDF by bisection on [1e-8, huge]. *)
  let chi2_ppf p =
    let lo = ref 1e-8 and hi = ref (Float.max 10.0 (df *. 20.0)) in
    for _ = 1 to 200 do
      let mid = 0.5 *. (!lo +. !hi) in
      if Special.chi2_cdf ~df mid < p then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)
  in
  let alpha = (1.0 -. level) /. 2.0 in
  let lo = df *. point.avar /. chi2_ppf (1.0 -. alpha) in
  let hi = df *. point.avar /. chi2_ppf alpha in
  (lo, hi)

let crossover_tau ~h0 ~hm1 =
  if h0 <= 0.0 || hm1 <= 0.0 then invalid_arg "Allan.crossover_tau: non-positive level";
  h0 /. (4.0 *. log 2.0 *. hm1)

let avar_white_fm ~h0 ~tau = h0 /. (2.0 *. tau)
let avar_flicker_fm ~hm1 = 2.0 *. log 2.0 *. hm1
