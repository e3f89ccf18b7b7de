let fir_direct ~h x =
  let n = Array.length x and m = Array.length h in
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let acc = ref 0.0 in
    let kmax = min (m - 1) i in
    for k = 0 to kmax do
      acc := !acc +. (h.(k) *. x.(i - k))
    done;
    y.(i) <- !acc
  done;
  y

let iir ~b ~a x =
  let na = Array.length a in
  if na = 0 || a.(0) = 0.0 then invalid_arg "Filter.iir: a.(0) must be non-zero";
  let nb = Array.length b in
  let n = Array.length x in
  let y = Array.make n 0.0 in
  let a0 = a.(0) in
  for i = 0 to n - 1 do
    let acc = ref 0.0 in
    for k = 0 to min (nb - 1) i do
      acc := !acc +. (b.(k) *. x.(i - k))
    done;
    for k = 1 to min (na - 1) i do
      acc := !acc -. (a.(k) *. y.(i - k))
    done;
    y.(i) <- !acc /. a0
  done;
  y

type biquad = { b0 : float; b1 : float; b2 : float; a1 : float; a2 : float }

let biquad_lowpass ~fc ~fs ~q =
  if fc <= 0.0 || fc >= fs /. 2.0 then invalid_arg "Filter.biquad_lowpass: fc outside (0, fs/2)";
  if q <= 0.0 then invalid_arg "Filter.biquad_lowpass: q <= 0";
  let w0 = 2.0 *. Float.pi *. fc /. fs in
  let alpha = sin w0 /. (2.0 *. q) in
  let cw = cos w0 in
  let a0 = 1.0 +. alpha in
  {
    b0 = (1.0 -. cw) /. 2.0 /. a0;
    b1 = (1.0 -. cw) /. a0;
    b2 = (1.0 -. cw) /. 2.0 /. a0;
    a1 = -2.0 *. cw /. a0;
    a2 = (1.0 -. alpha) /. a0;
  }

let biquad_apply bq x =
  iir ~b:[| bq.b0; bq.b1; bq.b2 |] ~a:[| 1.0; bq.a1; bq.a2 |] x

let remove_mean x =
  let n = Array.length x in
  if n = 0 then [||]
  else begin
    let mean = Array.fold_left ( +. ) 0.0 x /. float_of_int n in
    Array.map (fun v -> v -. mean) x
  end

let detrend_linear x =
  let n = Array.length x in
  if n < 2 then remove_mean x
  else begin
    (* OLS line through (i, x_i) using the closed form for equally
       spaced abscissas. *)
    let fn = float_of_int n in
    let sum_x = ref 0.0 and sum_ix = ref 0.0 in
    for i = 0 to n - 1 do
      sum_x := !sum_x +. x.(i);
      sum_ix := !sum_ix +. (float_of_int i *. x.(i))
    done;
    let mean_i = (fn -. 1.0) /. 2.0 in
    let mean_x = !sum_x /. fn in
    let var_i = (fn *. fn -. 1.0) /. 12.0 in
    let cov = (!sum_ix /. fn) -. (mean_i *. mean_x) in
    let slope = cov /. var_i in
    let intercept = mean_x -. (slope *. mean_i) in
    Array.init n (fun i -> x.(i) -. intercept -. (slope *. float_of_int i))
  end
