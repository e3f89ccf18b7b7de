type linear_fit = {
  slope : float;
  intercept : float;
  slope_se : float;
  intercept_se : float;
  r2 : float;
}

let linear ~x ~y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Regression.linear: length mismatch";
  if n < 2 then invalid_arg "Regression.linear: need >= 2 points";
  let fn = float_of_int n in
  let mx = Descriptive.mean x and my = Descriptive.mean y in
  let sxx = ref 0.0 and sxy = ref 0.0 and syy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = x.(i) -. mx and dy = y.(i) -. my in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. dy);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx = 0.0 then invalid_arg "Regression.linear: degenerate x";
  let slope = !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  let ss_res = !syy -. (slope *. !sxy) in
  let r2 = if !syy = 0.0 then 1.0 else 1.0 -. (ss_res /. !syy) in
  let slope_se, intercept_se =
    if n > 2 then begin
      let sigma2 = Float.max 0.0 ss_res /. (fn -. 2.0) in
      (sqrt (sigma2 /. !sxx), sqrt (sigma2 *. ((1.0 /. fn) +. (mx *. mx /. !sxx))))
    end
    else (Float.nan, Float.nan)
  in
  { slope; intercept; slope_se; intercept_se; r2 }

type fit = { coeffs : float array; cov : Matrix.t; chi2 : float; dof : int }

let general ~design ~y ?sigma () =
  let m = Matrix.rows design and p = Matrix.cols design in
  if Array.length y <> m then invalid_arg "Regression.general: y size mismatch";
  (match sigma with
  | Some s when Array.length s <> m -> invalid_arg "Regression.general: sigma size mismatch"
  | _ -> ());
  if m <= p then invalid_arg "Regression.general: need more points than parameters";
  let weight i = match sigma with None -> 1.0 | Some s -> 1.0 /. s.(i) in
  let a = Matrix.create ~rows:m ~cols:p in
  let b = Array.make m 0.0 in
  for i = 0 to m - 1 do
    let w = weight i in
    for j = 0 to p - 1 do
      Matrix.set a i j (Matrix.get design i j *. w)
    done;
    b.(i) <- y.(i) *. w
  done;
  let coeffs = Matrix.least_squares a b in
  let fitted = Matrix.mul_vec a coeffs in
  let chi2 = ref 0.0 in
  for i = 0 to m - 1 do
    let r = b.(i) -. fitted.(i) in
    chi2 := !chi2 +. (r *. r)
  done;
  let dof = m - p in
  let ata = Matrix.mul (Matrix.transpose a) a in
  let cov0 = Matrix.inverse ata in
  let cov =
    match sigma with
    | Some _ -> cov0
    | None ->
      (* Unit weights: scale by the residual variance estimate. *)
      let s2 = !chi2 /. float_of_int dof in
      let scaled = Matrix.copy cov0 in
      for i = 0 to p - 1 do
        for j = 0 to p - 1 do
          Matrix.set scaled i j (Matrix.get cov0 i j *. s2)
        done
      done;
      scaled
  in
  { coeffs; cov; chi2 = !chi2; dof }

let coeff_se fit k = sqrt (Float.max 0.0 (Matrix.get fit.cov k k))
