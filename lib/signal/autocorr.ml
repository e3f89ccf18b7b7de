let autocovariance ?max_lag x =
  let n = Array.length x in
  if n = 0 then invalid_arg "Autocorr.autocovariance: empty input";
  let max_lag = match max_lag with Some l -> l | None -> n - 1 in
  if max_lag < 0 || max_lag >= n then invalid_arg "Autocorr.autocovariance: bad max_lag";
  let mean = Array.fold_left ( +. ) 0.0 x /. float_of_int n in
  (* Zero-padded FFT: |X|^2 back-transformed gives circular correlation;
     padding to >= 2n makes it the linear one. *)
  let m = Fft.next_pow2 (2 * n) in
  let re = Float.Array.make m 0.0 and im = Float.Array.make m 0.0 in
  for i = 0 to n - 1 do
    Float.Array.set re i (x.(i) -. mean)
  done;
  Fft.forward_pow2 ~re ~im;
  for k = 0 to m - 1 do
    let r = Float.Array.get re k and j = Float.Array.get im k in
    Float.Array.set re k ((r *. r) +. (j *. j));
    Float.Array.set im k 0.0
  done;
  Fft.inverse_pow2_real ~re ~im;
  Array.init (max_lag + 1) (fun k -> Float.Array.get re k /. float_of_int n)

let acf ?max_lag x =
  let c = autocovariance ?max_lag x in
  if c.(0) <= 0.0 then invalid_arg "Autocorr.acf: zero-variance series";
  Array.map (fun v -> v /. c.(0)) c

let confidence_bound ~n = 1.96 /. sqrt (float_of_int n)
