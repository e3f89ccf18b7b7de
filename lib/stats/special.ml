(* Lanczos approximation, g = 7, n = 9 coefficients (Boost/GSL grade:
   ~15 significant digits for x > 0). *)
let lanczos_g = 7.0

let lanczos_coeffs =
  [|
    0.99999999999980993;
    676.5203681218851;
    -1259.1392167224028;
    771.32342877765313;
    -176.61502916214059;
    12.507343278686905;
    -0.13857109526572012;
    9.9843695780195716e-6;
    1.5056327351493116e-7;
  |]

let rec log_gamma x =
  if x <= 0.0 then invalid_arg "Special.log_gamma: x <= 0";
  if x < 0.5 then
    (* Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x). *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1.0 -. x)
  else begin
    let x = x -. 1.0 in
    let acc = ref lanczos_coeffs.(0) in
    for i = 1 to Array.length lanczos_coeffs - 1 do
      acc := !acc +. (lanczos_coeffs.(i) /. (x +. float_of_int i))
    done;
    let t = x +. lanczos_g +. 0.5 in
    (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc
  end

(* Series representation of P(a,x), converges fast for x < a + 1.
   [lga] is log Gamma(a).  Plain loops over float refs: the native
   compiler keeps them unboxed. *)
let gamma_p_series ~a ~lga ~x =
  let eps = 1e-15 in
  let n = ref 1 in
  let term = ref (1.0 /. a) in
  let sum = ref !term in
  while not (Float.abs !term < Float.abs !sum *. eps || !n > 1000) do
    term := !term *. x /. (a +. float_of_int !n);
    sum := !sum +. !term;
    incr n
  done;
  !sum *. exp ((a *. log x) -. x -. lga)

(* Lentz continued fraction for Q(a,x), converges fast for x >= a + 1.
   The fraction is positive and finite, so once the prefactor has
   underflowed the result is exactly 0 and the fraction is skipped.
   A flag rather than [raise Exit] ends the loop: the raise cost ~15%
   of an [Entropy.avg_entropy] call. *)
let gamma_q_cf ~a ~lga ~x =
  let prefactor = exp ((a *. log x) -. x -. lga) in
  if prefactor = 0.0 then 0.0
  else begin
    let eps = 1e-15 and tiny = 1e-300 in
    let b = ref (x +. 1.0 -. a) in
    let c = ref (1.0 /. tiny) in
    let d = ref (1.0 /. !b) in
    let h = ref !d in
    let i = ref 1 in
    let converged = ref false in
    while (not !converged) && !i <= 1000 do
      let an = -.float_of_int !i *. (float_of_int !i -. a) in
      b := !b +. 2.0;
      d := (an *. !d) +. !b;
      if Float.abs !d < tiny then d := tiny;
      c := !b +. (an /. !c);
      if Float.abs !c < tiny then c := tiny;
      d := 1.0 /. !d;
      let delta = !d *. !c in
      h := !h *. delta;
      converged := Float.abs (delta -. 1.0) < eps;
      incr i
    done;
    !h *. prefactor
  end

(* P(a,x), or Q(a,x) when [upper], for x > 0: the series below a + 1,
   the continued fraction from there, and the limits at x = infinity
   (where x^2 overflowed in erf/erfc). *)
let[@inline] gamma_pq ~upper ~a ~lga ~x =
  if x = Float.infinity then if upper then 0.0 else 1.0
  else if x < a +. 1.0 then begin
    let p = gamma_p_series ~a ~lga ~x in
    if upper then 1.0 -. p else p
  end
  else begin
    let q = gamma_q_cf ~a ~lga ~x in
    if upper then q else 1.0 -. q
  end

let gamma_p ~a ~x =
  if a <= 0.0 then invalid_arg "Special.gamma_p: a <= 0";
  if x < 0.0 then invalid_arg "Special.gamma_p: x < 0";
  if x = 0.0 then 0.0 else gamma_pq ~upper:false ~a ~lga:(log_gamma a) ~x

let gamma_q ~a ~x =
  if a <= 0.0 then invalid_arg "Special.gamma_q: a <= 0";
  if x < 0.0 then invalid_arg "Special.gamma_q: x < 0";
  if x = 0.0 then 1.0 else gamma_pq ~upper:true ~a ~lga:(log_gamma a) ~x

(* The a = 1/2 core of erf and erfc: P or Q (1/2, x^2) with log Gamma(1/2)
   computed once rather than per call. *)
let log_gamma_half = log_gamma 0.5

let[@inline] gamma_half ~upper x2 = gamma_pq ~upper ~a:0.5 ~lga:log_gamma_half ~x:x2

let erf x =
  if x = 0.0 then 0.0
  else begin
    let p = gamma_half ~upper:false (x *. x) in
    if x > 0.0 then p else -.p
  end

let[@inline] erfc_pos x = if x = 0.0 then 1.0 else gamma_half ~upper:true (x *. x)

let[@inline] erfc x = if x < 0.0 then 2.0 -. erfc_pos (-.x) else erfc_pos x

let sqrt2 = sqrt 2.0

let[@inline] normal_cdf x = 0.5 *. erfc (-.x /. sqrt2)
let[@inline] normal_sf x = 0.5 *. erfc (x /. sqrt2)

(* Acklam's rational approximation to the normal quantile, then one
   step of Halley refinement using the exact CDF above. *)
let normal_ppf p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Special.normal_ppf: p outside (0,1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let x =
    if p < p_low then begin
      let q = sqrt (-2.0 *. log p) in
      (((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
      /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
    end
    else if p <= 1.0 -. p_low then begin
      let q = p -. 0.5 in
      let r = q *. q in
      (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5)) *. q
      /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.0)
    end
    else begin
      let q = sqrt (-2.0 *. log (1.0 -. p)) in
      -.((((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
         /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0))
    end
  in
  (* Halley polish. *)
  let e = normal_cdf x -. p in
  let u = e *. sqrt (2.0 *. Float.pi) *. exp (x *. x /. 2.0) in
  x -. (u /. (1.0 +. (x *. u /. 2.0)))

let chi2_cdf ~df x =
  if df <= 0.0 then invalid_arg "Special.chi2_cdf: df <= 0";
  if x <= 0.0 then 0.0 else gamma_p ~a:(df /. 2.0) ~x:(x /. 2.0)

let chi2_sf ~df x =
  if df <= 0.0 then invalid_arg "Special.chi2_sf: df <= 0";
  if x <= 0.0 then 1.0 else gamma_q ~a:(df /. 2.0) ~x:(x /. 2.0)

let ks_sf lambda =
  if lambda <= 0.0 then 1.0
  else begin
    let acc = ref 0.0 in
    (try
       for j = 1 to 100 do
         let sign = if j land 1 = 1 then 1.0 else -1.0 in
         let term = sign *. exp (-2.0 *. float_of_int (j * j) *. lambda *. lambda) in
         acc := !acc +. term;
         if Float.abs term < 1e-16 then raise Exit
       done
     with Exit -> ());
    Float.max 0.0 (Float.min 1.0 (2.0 *. !acc))
  end
