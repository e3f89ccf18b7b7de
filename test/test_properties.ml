(* Property-based tests (qcheck) on the core data structures and
   invariants, spanning all layers of the library. *)

open QCheck2

let float_array ?(min_len = 2) ?(max_len = 64) ?(lo = -100.0) ?(hi = 100.0) () =
  Gen.(
    list_size (int_range min_len max_len) (float_range lo hi)
    |> map Array.of_list)

let close ?(tol = 1e-9) a b =
  if a = 0.0 || b = 0.0 then Float.abs (a -. b) <= tol
  else Float.abs (a -. b) <= tol *. Float.max (Float.abs a) (Float.abs b)

(* ------------------------------------------------------------------ *)
(* prng                                                                *)
(* ------------------------------------------------------------------ *)

let prng_props =
  [
    Testkit.qcheck "rng stream is reproducible from its seed" Gen.int (fun seed ->
        let a = Ptrng_prng.Rng.create ~seed:(Int64.of_int seed) () in
        let b = Ptrng_prng.Rng.create ~seed:(Int64.of_int seed) () in
        let ok = ref true in
        for _ = 1 to 50 do
          if Ptrng_prng.Rng.bits64 a <> Ptrng_prng.Rng.bits64 b then ok := false
        done;
        !ok);
    Testkit.qcheck "gaussian draws are finite for any seed" Gen.int (fun seed ->
        let g = Ptrng_prng.Rng.create ~seed:(Int64.of_int seed) () in
        let ok = ref true in
        for _ = 1 to 200 do
          if not (Float.is_finite (Ptrng_prng.Gaussian.draw g)) then ok := false
        done;
        !ok);
    Testkit.qcheck "exponential samples are nonnegative"
      Gen.(pair int (float_range 0.01 50.0))
      (fun (seed, rate) ->
        let rng = Ptrng_prng.Rng.create ~seed:(Int64.of_int seed) () in
        Ptrng_prng.Distributions.exponential rng ~rate >= 0.0);
  ]

(* ------------------------------------------------------------------ *)
(* signal                                                              *)
(* ------------------------------------------------------------------ *)

let signal_props =
  [
    Testkit.qcheck "dft round-trips arbitrary lengths through its conjugate"
      (Gen.pair (float_array ~min_len:1 ~max_len:50 ()) Gen.unit)
      (fun (x, ()) ->
        let n = Array.length x in
        let fr, fi = Ptrng_signal.Fft.dft ~re:x ~im:(Array.make n 0.0) in
        (* idft X = conj (dft (conj X)) / n *)
        let br, bi = Ptrng_signal.Fft.dft ~re:fr ~im:(Array.map Float.neg fi) in
        let inv = 1.0 /. float_of_int n in
        Array.for_all2 (fun a b -> close ~tol:1e-8 (a *. inv) b) br x
        && Array.for_all (fun v -> Float.abs (v *. inv) < 1e-6 *. (1.0 +. 100.0)) bi);
    Testkit.qcheck "parseval holds for any real signal"
      (float_array ~min_len:1 ~max_len:64 ())
      (fun x ->
        let n = Array.length x in
        let fr, fi = Ptrng_signal.Fft.rfft x in
        let time = Array.fold_left (fun a v -> a +. (v *. v)) 0.0 x in
        let freq = ref 0.0 in
        for k = 0 to n - 1 do
          freq := !freq +. (fr.(k) *. fr.(k)) +. (fi.(k) *. fi.(k))
        done;
        close ~tol:1e-8 time (!freq /. float_of_int n));
    Testkit.qcheck "windows stay within [-0.1, 1.01]"
      (Gen.pair (Gen.int_range 1 200) (Gen.int_range 0 5))
      (fun (n, kind_idx) ->
        let kind =
          List.nth
            [ Ptrng_signal.Window.Rectangular; Hann; Hamming; Blackman;
              Blackman_harris; Flattop ]
            kind_idx
        in
        let w = Ptrng_signal.Window.make kind n in
        Array.for_all (fun v -> v >= -0.11 && v <= 1.01) w);
  ]

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_props =
  [
    Testkit.qcheck "mean is translation-equivariant"
      (Gen.pair (float_array ()) (Gen.float_range (-50.0) 50.0))
      (fun (x, c) ->
        let shifted = Array.map (fun v -> v +. c) x in
        close ~tol:1e-9
          (Ptrng_stats.Descriptive.mean shifted)
          (Ptrng_stats.Descriptive.mean x +. c));
    Testkit.qcheck "variance is translation-invariant and scale-quadratic"
      (Gen.triple (float_array ()) (Gen.float_range (-10.0) 10.0)
         (Gen.float_range 0.1 10.0))
      (fun (x, c, s) ->
        let y = Array.map (fun v -> (s *. v) +. c) x in
        close ~tol:1e-7
          (Ptrng_stats.Descriptive.variance y)
          (s *. s *. Ptrng_stats.Descriptive.variance x));
    Testkit.qcheck "quantile is monotone in p"
      (Gen.triple (float_array ()) (Gen.float_range 0.0 1.0) (Gen.float_range 0.0 1.0))
      (fun (x, p1, p2) ->
        let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
        Ptrng_stats.Descriptive.quantile x lo
        <= Ptrng_stats.Descriptive.quantile x hi +. 1e-12);
    Testkit.qcheck "normal_cdf and normal_ppf are inverse"
      (Gen.float_range 0.001 0.999)
      (fun p ->
        close ~tol:1e-6 p (Ptrng_stats.Special.normal_cdf (Ptrng_stats.Special.normal_ppf p)));
    Testkit.qcheck "gamma_p is monotone in x"
      (Gen.triple (Gen.float_range 0.1 20.0) (Gen.float_range 0.0 30.0)
         (Gen.float_range 0.0 30.0))
      (fun (a, x1, x2) ->
        let lo = Float.min x1 x2 and hi = Float.max x1 x2 in
        Ptrng_stats.Special.gamma_p ~a ~x:lo
        <= Ptrng_stats.Special.gamma_p ~a ~x:hi +. 1e-12);
    Testkit.qcheck "lu solve then multiply recovers the rhs"
      (Gen.pair (Gen.int_range 1 6) Gen.int)
      (fun (n, seed) ->
        let rng = Ptrng_prng.Rng.create ~seed:(Int64.of_int seed) () in
        let a = Ptrng_stats.Matrix.create ~rows:n ~cols:n in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            Ptrng_stats.Matrix.set a i j (Ptrng_prng.Rng.float rng -. 0.5)
          done;
          (* Diagonal dominance keeps the system well-conditioned. *)
          Ptrng_stats.Matrix.set a i i (2.0 +. Ptrng_prng.Rng.float rng)
        done;
        let b = Array.init n (fun _ -> Ptrng_prng.Rng.float rng -. 0.5) in
        let x = Ptrng_stats.Matrix.solve_lu a b in
        let back = Ptrng_stats.Matrix.mul_vec a x in
        Array.for_all2 (fun u v -> close ~tol:1e-8 (u +. 10.0) (v +. 10.0)) back b);
    Testkit.qcheck "allan variance scales quadratically with y amplitude"
      (Gen.pair Gen.int (Gen.float_range 0.5 4.0))
      (fun (seed, s) ->
        let g = Ptrng_prng.Rng.create ~seed:(Int64.of_int seed) () in
        let y = Array.init 512 (fun _ -> Ptrng_prng.Gaussian.draw g) in
        let ys = Array.map (fun v -> s *. v) y in
        let a1 = Ptrng_stats.Allan.avar_overlapping ~tau0:1.0 ~m:4 y in
        let a2 = Ptrng_stats.Allan.avar_overlapping ~tau0:1.0 ~m:4 ys in
        close ~tol:1e-9 (s *. s *. a1) a2);
  ]

(* ------------------------------------------------------------------ *)
(* noise / model                                                       *)
(* ------------------------------------------------------------------ *)

let model_props =
  [
    Testkit.qcheck "psd_model conversions round-trip"
      (Gen.triple (Gen.float_range 1.0 1e4) (Gen.float_range 0.0 1e7)
         (Gen.float_range 1e6 1e9))
      (fun (b_th, b_fl, f0) ->
        let p = { Ptrng_noise.Psd_model.b_th; b_fl } in
        let back =
          Ptrng_noise.Psd_model.phase_of_frac_freq ~f0
            (Ptrng_noise.Psd_model.frac_freq_of_phase ~f0 p)
        in
        close ~tol:1e-12 p.b_th back.Ptrng_noise.Psd_model.b_th
        && close ~tol:1e-12 (p.b_fl +. 1.0) (back.Ptrng_noise.Psd_model.b_fl +. 1.0));
    Testkit.qcheck "sigma2_n is additive in the two noise terms"
      (Gen.quad (Gen.float_range 1.0 1e4) (Gen.float_range 1.0 1e7)
         (Gen.float_range 1e7 1e9) (Gen.int_range 1 100000))
      (fun (b_th, b_fl, f0, n) ->
        let p = { Ptrng_noise.Psd_model.b_th; b_fl } in
        close ~tol:1e-12
          (Ptrng_model.Spectral.sigma2_n p ~f0 ~n)
          (Ptrng_model.Spectral.sigma2_n_thermal p ~f0 ~n
          +. Ptrng_model.Spectral.sigma2_n_flicker p ~f0 ~n));
    Testkit.qcheck "sigma2_n is monotone in N"
      (Gen.quad (Gen.float_range 1.0 1e4) (Gen.float_range 0.0 1e7)
         (Gen.float_range 1e7 1e9) (Gen.pair (Gen.int_range 1 50000) (Gen.int_range 1 50000)))
      (fun (b_th, b_fl, f0, (n1, n2)) ->
        let p = { Ptrng_noise.Psd_model.b_th; b_fl } in
        let lo = min n1 n2 and hi = max n1 n2 in
        Ptrng_model.Spectral.sigma2_n p ~f0 ~n:lo
        <= Ptrng_model.Spectral.sigma2_n p ~f0 ~n:hi +. 1e-30);
    Testkit.qcheck "bit probability is a probability and symmetric"
      (Gen.pair (Gen.float_range (-10.0) 10.0) (Gen.float_range 0.0 5.0))
      (fun (mu, s) ->
        let p = Ptrng_model.Entropy.bit_probability ~mu ~phase_std:s in
        let q = Ptrng_model.Entropy.bit_probability ~mu:(-.mu) ~phase_std:s in
        p >= 0.0 && p <= 1.0 && close ~tol:1e-6 (p +. q +. 1.0) 2.0);
    Testkit.qcheck "shannon entropy is bounded and symmetric"
      (Gen.float_range 0.0 1.0)
      (fun p ->
        let h = Ptrng_model.Entropy.shannon p in
        let h' = Ptrng_model.Entropy.shannon (1.0 -. p) in
        h >= 0.0 && h <= 1.0 +. 1e-12 && close ~tol:1e-9 (h +. 1.0) (h' +. 1.0));
    Testkit.qcheck "r_N is a decreasing probability"
      (Gen.quad (Gen.float_range 1.0 1e4) (Gen.float_range 1.0 1e7)
         (Gen.float_range 1e7 1e9) (Gen.int_range 0 100000))
      (fun (b_th, b_fl, f0, n) ->
        let e =
          Ptrng_measure.Thermal_extract.of_phase ~f0 { Ptrng_noise.Psd_model.b_th; b_fl }
        in
        let r = Ptrng_measure.Thermal_extract.r_n e n in
        let r' = Ptrng_measure.Thermal_extract.r_n e (n + 1) in
        r >= 0.0 && r <= 1.0 && r' <= r +. 1e-12);
  ]

(* ------------------------------------------------------------------ *)
(* trng / measurement                                                  *)
(* ------------------------------------------------------------------ *)

let trng_props =
  [
    Testkit.qcheck "bitstream bytes round-trip through packing"
      (Gen.list_size (Gen.int_range 1 200) Gen.bool)
      (fun bools ->
        let bits = Array.of_list bools in
        let s = Ptrng_trng.Bitstream.of_bools bits in
        let packed = Ptrng_trng.Bitstream.to_bytes s in
        let unpack i =
          let byte = Char.code (Bytes.get packed (i / 8)) in
          byte lsr (7 - (i mod 8)) land 1 = 1
        in
        let ok = ref true in
        Array.iteri (fun i b -> if unpack i <> b then ok := false) bits;
        !ok);
    Testkit.qcheck "xor_decimate output parity matches manual fold"
      (Gen.pair (Gen.list_size (Gen.int_range 4 100) Gen.bool) (Gen.int_range 1 5))
      (fun (bools, k) ->
        let bits = Array.of_list bools in
        let s = Ptrng_trng.Bitstream.of_bools bits in
        let out = Ptrng_trng.Post_process.xor_decimate ~k s in
        let ok = ref true in
        for i = 0 to Ptrng_trng.Bitstream.length out - 1 do
          let expected = ref false in
          for j = 0 to k - 1 do
            expected := !expected <> bits.((i * k) + j)
          done;
          if Ptrng_trng.Bitstream.get out i <> !expected then ok := false
        done;
        !ok);
    Testkit.qcheck "von neumann output is at most half the input"
      (Gen.list_size (Gen.int_range 0 200) Gen.bool)
      (fun bools ->
        let s = Ptrng_trng.Bitstream.of_bools (Array.of_list bools) in
        let out = Ptrng_trng.Post_process.von_neumann s in
        Ptrng_trng.Bitstream.length out <= List.length bools / 2);
    Testkit.qcheck "s_N realizations are second differences of the cumsum"
      (Gen.pair (float_array ~min_len:8 ~max_len:60 ~lo:(-1.0) ~hi:1.0 ()) (Gen.int_range 1 4))
      (fun (j, n) ->
        if Array.length j < 2 * n then true
        else begin
          let s = Ptrng_measure.S_process.realizations ~n j in
          let c = Ptrng_measure.S_process.cumulative j in
          let ok = ref true in
          Array.iteri
            (fun i v ->
              let expected = c.(i + (2 * n)) -. (2.0 *. c.(i + n)) +. c.(i) in
              if not (close ~tol:1e-9 (v +. 10.0) (expected +. 10.0)) then ok := false)
            s;
          !ok
        end);
    Testkit.qcheck "counter windows sum to the total edge count"
      (Gen.pair Gen.int (Gen.int_range 1 16))
      (fun (seed, n) ->
        let rng = Ptrng_prng.Rng.create ~seed:(Int64.of_int seed) () in
        let len = 256 in
        (* Strictly increasing random edge times for both oscillators. *)
        let edges label =
          ignore label;
          let t = ref 0.0 in
          Array.init (len + 1) (fun _ ->
              t := !t +. 0.5 +. Ptrng_prng.Rng.float rng;
              !t)
        in
        let edges1 = edges 1 and edges2 = edges 2 in
        let q = Ptrng_measure.Counter.q_counts ~edges1 ~edges2 ~n in
        let windows = Array.length q in
        if windows < 2 then true
        else begin
          let t_start = edges2.(0) and t_stop = edges2.(windows * n) in
          let direct =
            Array.fold_left
              (fun acc t -> if t >= t_start && t < t_stop then acc + 1 else acc)
              0 edges1
          in
          Array.fold_left ( + ) 0 q = direct
        end);
  ]

(* ------------------------------------------------------------------ *)
(* newer modules                                                       *)
(* ------------------------------------------------------------------ *)

let extended_props =
  [
    Testkit.qcheck "phase-chain bit probabilities are probabilities"
      (Gen.triple (Gen.float_range (-6.0) 6.0) (Gen.float_range 0.0 4.0)
         (Gen.int_range 0 255))
      (fun (drift, diffusion, state) ->
        let chain = Ptrng_model.Phase_chain.create ~drift ~diffusion () in
        let p = Ptrng_model.Phase_chain.bit_probability_of_state chain state in
        p >= 0.0 && p <= 1.0 +. 1e-12);
    Testkit.qcheck "phase-chain stationary distribution sums to 1"
      (Gen.pair (Gen.float_range (-3.0) 3.0) (Gen.float_range 0.0 3.0))
      (fun (drift, diffusion) ->
        let chain = Ptrng_model.Phase_chain.create ~bins:64 ~drift ~diffusion () in
        let total =
          Array.fold_left ( +. ) 0.0 (Ptrng_model.Phase_chain.stationary chain)
        in
        close ~tol:1e-9 1.0 total);
    Testkit.qcheck "90B estimates live in [0, 1]"
      (Gen.pair Gen.int (Gen.float_range 0.05 0.95))
      (fun (seed, p) ->
        let rng = Ptrng_prng.Rng.create ~seed:(Int64.of_int seed) () in
        let bits =
          Array.init 2000 (fun _ -> Ptrng_prng.Distributions.bernoulli rng ~p)
        in
        let e = Ptrng_sp90b.Estimators.most_common_value bits in
        e.Ptrng_sp90b.Estimators.min_entropy >= 0.0
        && e.Ptrng_sp90b.Estimators.min_entropy <= 1.0);
    Testkit.qcheck "coherent config enforces coprimality"
      (Gen.pair (Gen.int_range 2 40) (Gen.int_range 2 40))
      (fun (km, kd) ->
        let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
        let built =
          try
            ignore (Ptrng_trng.Coherent.config ~f0:1e8 ~km ~kd ());
            true
          with Invalid_argument _ -> false
        in
        built = (gcd km kd = 1));
    Testkit.qcheck "quantization floor is capped at 1/2"
      (Gen.triple (Gen.float_range 0.0 1e4) (Gen.float_range 0.0 1e-3)
         (Gen.int_range 1 100000))
      (fun (b_th, detuning, n) ->
        let phase = { Ptrng_noise.Psd_model.b_th; b_fl = b_th /. 2.0 } in
        let v =
          Ptrng_measure.Quantization.floor_variance ~phase ~f0:1e8 ~detuning ~n
        in
        v >= 0.0 && v <= Ptrng_measure.Quantization.saturated_floor +. 1e-12);
    Testkit.qcheck "sp800-22 p-values are probabilities"
      Gen.int
      (fun seed ->
        let rng = Ptrng_prng.Rng.create ~seed:(Int64.of_int seed) () in
        let bits = Array.init 1200 (fun _ -> Ptrng_prng.Rng.bool rng) in
        List.for_all
          (fun (r : Ptrng_nist22.Sp80022.result) -> r.p_value >= 0.0 && r.p_value <= 1.0)
          (Ptrng_nist22.Sp80022.run_all bits));
  ]

let () =
  Alcotest.run "properties"
    [
      ("prng", prng_props);
      ("signal", signal_props);
      ("stats", stats_props);
      ("model", model_props);
      ("trng", trng_props);
      ("extended", extended_props);
    ]
