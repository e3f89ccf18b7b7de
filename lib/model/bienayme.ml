let linear_prediction ~sigma2 ~n =
  if n <= 0 then invalid_arg "Bienayme.linear_prediction: n <= 0";
  2.0 *. float_of_int n *. sigma2

let growth_exponent (points : Ptrng_measure.Variance_curve.point array) =
  if Array.length points < 3 then invalid_arg "Bienayme.growth_exponent: need >= 3 points";
  let x = Array.map (fun p -> log10 (float_of_int p.Ptrng_measure.Variance_curve.n)) points in
  let y = Array.map (fun p -> log10 p.Ptrng_measure.Variance_curve.sigma2) points in
  let fit = Ptrng_stats.Regression.linear ~x ~y in
  (fit.slope, fit.slope_se)

let per_period_sigma2 (points : Ptrng_measure.Variance_curve.point array) =
  if Array.length points = 0 then invalid_arg "Bienayme: empty curve";
  let first =
    Array.fold_left
      (fun acc p ->
        if p.Ptrng_measure.Variance_curve.n < acc.Ptrng_measure.Variance_curve.n then p
        else acc)
      points.(0) points
  in
  first.sigma2 /. (2.0 *. float_of_int first.n)

let departure_ratio points =
  let sigma2 = per_period_sigma2 points in
  Array.map
    (fun (p : Ptrng_measure.Variance_curve.point) ->
      (p.n, p.sigma2 /. linear_prediction ~sigma2 ~n:p.n))
    points
