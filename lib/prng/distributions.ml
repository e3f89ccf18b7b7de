let exponential rng ~rate =
  if rate <= 0.0 then invalid_arg "Distributions.exponential: rate <= 0";
  -.log (Rng.float_pos rng) /. rate

let laplace rng ~mu ~b =
  if b <= 0.0 then invalid_arg "Distributions.laplace: b <= 0";
  let u = Rng.float rng -. 0.5 in
  mu -. (b *. Float.of_int (compare u 0.0) *. log (1.0 -. (2.0 *. Float.abs u)))

let cauchy rng ~x0 ~gamma =
  if gamma <= 0.0 then invalid_arg "Distributions.cauchy: gamma <= 0";
  x0 +. (gamma *. tan (Float.pi *. (Rng.float rng -. 0.5)))

let bernoulli rng ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Distributions.bernoulli: p outside [0,1]";
  Rng.float rng < p

let binomial rng ~n ~p =
  if n < 0 then invalid_arg "Distributions.binomial: n < 0";
  if p < 0.0 || p > 1.0 then invalid_arg "Distributions.binomial: p outside [0,1]";
  if n = 0 || p = 0.0 then 0
  else if p = 1.0 then n
  else if float_of_int n *. p <= 30.0 || float_of_int n *. (1.0 -. p) <= 30.0 then begin
    (* Direct simulation: exact and fast enough in the thin regime. *)
    let count = ref 0 in
    for _ = 1 to n do
      if Rng.float rng < p then incr count
    done;
    !count
  end
  else begin
    let mean = float_of_int n *. p in
    let sd = sqrt (mean *. (1.0 -. p)) in
    let k = int_of_float (Float.round (Gaussian.draw_scaled rng ~mu:mean ~sigma:sd)) in
    max 0 (min n k)
  end

let poisson rng ~lambda =
  if lambda <= 0.0 then invalid_arg "Distributions.poisson: lambda <= 0";
  if lambda <= 30.0 then begin
    let threshold = exp (-.lambda) in
    let rec loop k prod =
      let prod = prod *. Rng.float_pos rng in
      if prod <= threshold then k else loop (k + 1) prod
    in
    loop 0 1.0
  end
  else begin
    let k =
      int_of_float (Float.round (Gaussian.draw_scaled rng ~mu:lambda ~sigma:(sqrt lambda)))
    in
    max 0 k
  end

let geometric rng ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Distributions.geometric: p outside (0,1]";
  if p = 1.0 then 0
  else
    let u = Rng.float_pos rng in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let uniform_array rng n =
  Array.init n (fun _ -> Rng.float rng)
