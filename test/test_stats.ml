open Ptrng_stats

let gaussian_array ?(seed = 0x5EEDL) ?(sigma = 1.0) n =
  let g = Testkit.rng ~seed () in
  Array.init n (fun _ -> sigma *. Ptrng_prng.Gaussian.draw g)

let descriptive_tests =
  [
    Testkit.case "mean/variance of a known sample" (fun () ->
        let x = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
        Testkit.check_rel ~tol:1e-12 "mean" 5.0 (Descriptive.mean x);
        Testkit.check_rel ~tol:1e-12 "biased var" 4.0 (Descriptive.variance_biased x);
        Testkit.check_rel ~tol:1e-12 "unbiased var" (32.0 /. 7.0) (Descriptive.variance x));
    Testkit.case "median and quantiles" (fun () ->
        let x = [| 7.0; 1.0; 3.0; 5.0 |] in
        Testkit.check_rel ~tol:1e-12 "median" 4.0 (Descriptive.median x);
        Testkit.check_rel ~tol:1e-12 "q0" 1.0 (Descriptive.quantile x 0.0);
        Testkit.check_rel ~tol:1e-12 "q1" 7.0 (Descriptive.quantile x 1.0);
        Testkit.check_rel ~tol:1e-12 "q25" 2.5 (Descriptive.quantile x 0.25));
    Testkit.case "min_max" (fun () ->
        let lo, hi = Descriptive.min_max [| 3.0; -1.0; 9.0; 0.0 |] in
        Testkit.check_rel ~tol:0.0 "lo" (-1.0) lo;
        Testkit.check_rel ~tol:0.0 "hi" 9.0 hi);
    Testkit.case "kahan sum survives cancellation" (fun () ->
        let x = Array.concat [ [| 1e16 |]; Array.make 10 1.0; [| -1e16 |] ] in
        Testkit.check_rel ~tol:1e-12 "sum" 10.0 (Descriptive.sum x));
    Testkit.case "skewness and kurtosis of a gaussian sample" (fun () ->
        let x = gaussian_array 100000 in
        Testkit.check_abs ~tol:0.05 "skew" 0.0 (Descriptive.skewness x);
        Testkit.check_abs ~tol:0.1 "kurt" 0.0 (Descriptive.kurtosis_excess x));
    Testkit.case "exponential sample has skew 2, kurtosis 6" (fun () ->
        let rng = Testkit.rng () in
        let x =
          Array.init 300000 (fun _ -> Ptrng_prng.Distributions.exponential rng ~rate:1.0)
        in
        Testkit.check_rel ~tol:0.1 "skew" 2.0 (Descriptive.skewness x);
        Testkit.check_rel ~tol:0.2 "kurt" 6.0 (Descriptive.kurtosis_excess x));
    Testkit.case "guards on short input" (fun () ->
        Alcotest.check_raises "variance of singleton"
          (Invalid_argument "Descriptive.variance: need at least 2 samples")
          (fun () -> ignore (Descriptive.variance [| 1.0 |])));
    Testkit.case "standard error of variance" (fun () ->
        Testkit.check_rel ~tol:1e-12 "se" (2.0 *. sqrt (2.0 /. 99.0))
          (Descriptive.standard_error_of_variance ~n:100 ~variance:2.0));
  ]

(* math.erfc from CPython, which shares no code with Special:
   python3 -c "import math; print([(x, math.erfc(x)) for x in [-3 + 0.75*k for k in range(40)]])" *)
let erfc_reference =
  [
    (-3.0, 1.9999779095030015);
    (-2.25, 1.9985372834133188);
    (-1.5, 1.9661051464753108);
    (-0.75, 1.7111556336535152);
    (0.0, 1.0);
    (0.75, 0.28884436634648486);
    (1.5, 0.033894853524689274);
    (2.25, 0.0014627165866811518);
    (3.0, 2.2090496998585438e-05);
    (3.75, 1.1372725656979664e-07);
    (4.5, 1.9661604415428873e-10);
    (5.25, 1.1310313266887154e-13);
    (6.0, 2.1519736712498916e-17);
    (6.75, 1.3487678893611298e-21);
    (7.5, 2.776649386030569e-26);
    (8.25, 1.8735664705504999e-31);
    (9.0, 4.13703174651381e-37);
    (9.75, 2.9857008328005786e-43);
    (10.5, 7.035928090177523e-50);
    (11.25, 5.409760870689921e-57);
    (12.0, 1.3562611692059042e-64);
    (12.75, 1.1081345768520579e-72);
    (13.5, 2.949433113257988e-81);
    (14.25, 2.556372343088649e-90);
    (15.0, 7.212994172451206e-100);
    (15.75, 6.623668412559064e-110);
    (16.5, 1.9791305755532683e-120);
    (17.25, 1.9237891895868788e-131);
    (18.0, 6.082369231816399e-143);
    (18.75, 6.253951588878104e-155);
    (19.5, 2.0909541479227294e-167);
    (20.25, 2.272956417880784e-180);
    (21.0, 8.032453871022456e-194);
    (21.75, 9.22729996799772e-208);
    (22.5, 3.445348860464602e-222);
    (23.25, 4.1810990031782966e-237);
    (24.0, 1.6489825831519335e-252);
    (24.75, 2.1134039756554102e-268);
    (25.5, 8.801662690727949e-285);
    (26.25, 1.191076770672623e-301);
  ]

(* Exact comparison that, unlike check_abs ~tol:0.0, fails on a NaN
   result. *)
let check_exact = Alcotest.(check (float 0.0))

let special_tests =
  [
    Testkit.case "log_gamma at integers and half-integers" (fun () ->
        Testkit.check_abs ~tol:1e-12 "lgamma 1" 0.0 (Special.log_gamma 1.0);
        Testkit.check_rel ~tol:1e-12 "lgamma 5" (log 24.0) (Special.log_gamma 5.0);
        Testkit.check_rel ~tol:1e-12 "lgamma 0.5" (0.5 *. log Float.pi)
          (Special.log_gamma 0.5);
        Testkit.check_rel ~tol:1e-10 "lgamma 10.5"
          (Special.log_gamma 9.5 +. log 9.5)
          (Special.log_gamma 10.5));
    Testkit.case "erf reference values" (fun () ->
        Testkit.check_abs ~tol:1e-10 "erf 0" 0.0 (Special.erf 0.0);
        Testkit.check_rel ~tol:1e-9 "erf 1" 0.8427007929497149 (Special.erf 1.0);
        Testkit.check_rel ~tol:1e-9 "erf 0.5" 0.5204998778130465 (Special.erf 0.5);
        Testkit.check_rel ~tol:1e-9 "erf -1" (-0.8427007929497149) (Special.erf (-1.0));
        Testkit.check_rel ~tol:1e-12 "erfc 2" 0.004677734981047265 (Special.erfc 2.0));
    Testkit.case "erfc matches an independent reference table" (fun () ->
        List.iter
          (fun (x, expected) ->
            Testkit.check_rel ~tol:1e-12 (Printf.sprintf "erfc %g" x) expected
              (Special.erfc x))
          erfc_reference);
    Testkit.case "erf family and incomplete gamma at the infinities and NaN" (fun () ->
        check_exact "erfc +inf" 0.0 (Special.erfc Float.infinity);
        check_exact "erfc -inf" 2.0 (Special.erfc Float.neg_infinity);
        check_exact "erfc 1e200" 0.0 (Special.erfc 1e200);
        check_exact "erfc -1e200" 2.0 (Special.erfc (-1e200));
        check_exact "erf +inf" 1.0 (Special.erf Float.infinity);
        check_exact "erf -inf" (-1.0) (Special.erf Float.neg_infinity);
        check_exact "normal_cdf +inf" 1.0 (Special.normal_cdf Float.infinity);
        check_exact "normal_cdf -inf" 0.0 (Special.normal_cdf Float.neg_infinity);
        check_exact "normal_sf +inf" 0.0 (Special.normal_sf Float.infinity);
        check_exact "gamma_p x = inf" 1.0 (Special.gamma_p ~a:2.5 ~x:Float.infinity);
        check_exact "gamma_q x = inf" 0.0 (Special.gamma_q ~a:2.5 ~x:Float.infinity);
        List.iter
          (fun (name, f) -> Testkit.check_true name (Float.is_nan (f Float.nan)))
          [
            ("erf nan", Special.erf);
            ("erfc nan", Special.erfc);
            ("normal_cdf nan", Special.normal_cdf);
            ("normal_sf nan", Special.normal_sf);
          ]);
    Testkit.case "erfc is exactly 0 once its prefactor underflows" (fun () ->
        check_exact "erfc 30" 0.0 (Special.erfc 30.0);
        check_exact "erfc 40" 0.0 (Special.erfc 40.0));
    Testkit.case "erf family and incomplete gamma digests" (fun () ->
        (* Pins every bit of the outputs.  The erfc grid spans the series
           branch (x^2 < 1.5), the continued fraction and the underflow
           region (x > ~27.3); the gamma grid straddles x = a + 1 for the
           chi^2 and AIS-31 procedure B shapes. *)
        let xs = List.init 861 (fun i -> -3.0 +. (0.05 *. float_of_int i)) in
        let gamma_args =
          List.concat_map
            (fun a ->
              List.map
                (fun r -> (a, r *. (a +. 1.0)))
                [ 0.01; 0.2; 0.5; 0.9; 0.99; 1.0; 1.01; 1.2; 2.0; 5.0; 20.0 ])
            [ 0.5; 1.0; 2.5; 10.0 ]
        in
        let gamma f = List.map (fun (a, x) -> f ~a ~x) gamma_args in
        List.iter
          (fun (name, expected, values) ->
            Alcotest.(check string) name expected (Testkit.float_digest (List.to_seq values)))
          [
            ("erfc", "fb50418c3fc6bf238e30e113184ed7f4", List.map Special.erfc xs);
            ("normal_cdf", "1e86e55401d3fed384ade36e4fd33847", List.map Special.normal_cdf xs);
            ("normal_sf", "af9b0f71c6ff08e91b6d873410a3b06e", List.map Special.normal_sf xs);
            ("gamma_p", "5e93e099043839c0b803eb16c2a63280", gamma Special.gamma_p);
            ("gamma_q", "941b71fff29ab9c75d1de7868e87689f", gamma Special.gamma_q);
          ]);
    Testkit.case "erf + erfc = 1" (fun () ->
        List.iter
          (fun x ->
            Testkit.check_rel ~tol:1e-12 "sum" 1.0 (Special.erf x +. Special.erfc x))
          [ -2.0; -0.3; 0.0; 0.7; 3.0 ]);
    Testkit.case "gamma_p of a = 1 is 1 - exp(-x)" (fun () ->
        List.iter
          (fun x ->
            Testkit.check_rel ~tol:1e-10 "gamma_p" (1.0 -. exp (-.x))
              (Special.gamma_p ~a:1.0 ~x))
          [ 0.1; 1.0; 3.0; 10.0 ]);
    Testkit.case "gamma_p + gamma_q = 1" (fun () ->
        List.iter
          (fun (a, x) ->
            Testkit.check_rel ~tol:1e-10 "sum" 1.0
              (Special.gamma_p ~a ~x +. Special.gamma_q ~a ~x))
          [ (0.5, 0.2); (2.0, 5.0); (10.0, 3.0); (10.0, 30.0) ]);
    Testkit.case "normal cdf reference values" (fun () ->
        Testkit.check_rel ~tol:1e-12 "cdf 0" 0.5 (Special.normal_cdf 0.0);
        Testkit.check_rel ~tol:1e-9 "cdf of the 97.5% quantile" 0.975
          (Special.normal_cdf 1.959963984540054);
        Testkit.check_rel ~tol:1e-9 "sf tail" (Special.normal_cdf (-4.0))
          (Special.normal_sf 4.0));
    Testkit.case "normal_ppf inverts the cdf" (fun () ->
        List.iter
          (fun p ->
            Testkit.check_abs ~tol:1e-9 "round trip" p
              (Special.normal_cdf (Special.normal_ppf p)))
          [ 1e-6; 0.01; 0.3; 0.5; 0.9; 0.999; 1.0 -. 1e-6 ]);
    Testkit.case "chi2 reference values" (fun () ->
        Testkit.check_rel ~tol:1e-10 "df=2 cdf" (1.0 -. exp (-1.0))
          (Special.chi2_cdf ~df:2.0 2.0);
        Testkit.check_rel ~tol:1e-4 "df=1 95pc" 0.05
          (Special.chi2_sf ~df:1.0 3.841458820694124));
    Testkit.case "ks survival sanity" (fun () ->
        Testkit.check_rel ~tol:1e-12 "0" 1.0 (Special.ks_sf 0.0);
        Testkit.check_rel ~tol:1e-6 "1.0"
          (2.0 *. (exp (-2.0) -. exp (-8.0) +. exp (-18.0) -. exp (-32.0)))
          (Special.ks_sf 1.0);
        Testkit.check_true "decreasing" (Special.ks_sf 0.5 > Special.ks_sf 1.5));
  ]

let matrix_tests =
  [
    Testkit.case "solve_lu on a known system" (fun () ->
        let a = Matrix.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
        let x = Matrix.solve_lu a [| 5.0; 10.0 |] in
        Testkit.check_rel ~tol:1e-12 "x0" 1.0 x.(0);
        Testkit.check_rel ~tol:1e-12 "x1" 3.0 x.(1));
    Testkit.case "solve_lu with pivoting" (fun () ->
        let a = Matrix.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
        let x = Matrix.solve_lu a [| 2.0; 3.0 |] in
        Testkit.check_rel ~tol:1e-12 "x0" 3.0 x.(0);
        Testkit.check_rel ~tol:1e-12 "x1" 2.0 x.(1));
    Testkit.case "inverse times original is identity" (fun () ->
        let a =
          Matrix.of_rows [| [| 4.0; 7.0; 2.0 |]; [| 3.0; 5.0; 1.0 |]; [| 8.0; 1.0; 6.0 |] |]
        in
        let prod = Matrix.mul a (Matrix.inverse a) in
        for i = 0 to 2 do
          for j = 0 to 2 do
            Testkit.check_abs ~tol:1e-10 "entry" (if i = j then 1.0 else 0.0)
              (Matrix.get prod i j)
          done
        done);
    Testkit.case "mul_vec" (fun () ->
        let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
        Alcotest.(check (array (float 1e-12))) "product" [| 5.0; 11.0 |]
          (Matrix.mul_vec a [| 1.0; 2.0 |]));
    Testkit.case "singular system raises" (fun () ->
        let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
        Alcotest.check_raises "singular" (Failure "Matrix: singular system") (fun () ->
            ignore (Matrix.solve_lu a [| 1.0; 2.0 |])));
    Testkit.case "least_squares recovers an exact solution" (fun () ->
        (* Overdetermined but consistent: y = 2 x0 - x1. *)
        let a =
          Matrix.of_rows
            [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 1.0 |]; [| 2.0; 1.0 |] |]
        in
        let y = [| 2.0; -1.0; 1.0; 3.0 |] in
        let x = Matrix.least_squares a y in
        Testkit.check_rel ~tol:1e-12 "x0" 2.0 x.(0);
        Testkit.check_rel ~tol:1e-10 "x1" (-1.0) x.(1));
    Testkit.case "least_squares equals normal equations on noisy data" (fun () ->
        let rng = Testkit.rng () in
        let m = 50 in
        let a =
          Matrix.of_rows
            (Array.init m (fun _ ->
                 [| Ptrng_prng.Rng.float rng; Ptrng_prng.Rng.float rng; 1.0 |]))
        in
        let y = Array.init m (fun _ -> Ptrng_prng.Rng.float rng) in
        let qr = Matrix.least_squares a y in
        let at = Matrix.transpose a in
        let ne = Matrix.solve_lu (Matrix.mul at a) (Matrix.mul_vec at y) in
        for j = 0 to 2 do
          Testkit.check_abs ~tol:1e-9 "coef" ne.(j) qr.(j)
        done);
    Testkit.case "rank-deficient least squares raises" (fun () ->
        let a = Matrix.of_rows [| [| 1.0; 1.0 |]; [| 2.0; 2.0 |]; [| 3.0; 3.0 |] |] in
        Alcotest.check_raises "rank" (Failure "Matrix: rank-deficient least squares")
          (fun () -> ignore (Matrix.least_squares a [| 1.0; 2.0; 3.0 |])));
  ]

let regression_tests =
  [
    Testkit.case "exact line gives r2 = 1" (fun () ->
        let x = Array.init 20 float_of_int in
        let y = Array.map (fun v -> (3.0 *. v) -. 7.0) x in
        let f = Regression.linear ~x ~y in
        Testkit.check_rel ~tol:1e-12 "slope" 3.0 f.slope;
        Testkit.check_rel ~tol:1e-10 "intercept" (-7.0) f.intercept;
        Testkit.check_rel ~tol:1e-12 "r2" 1.0 f.r2;
        Testkit.check_abs ~tol:1e-9 "slope se" 0.0 f.slope_se);
    Testkit.case "noisy line: estimate within 4 standard errors" (fun () ->
        let g = Testkit.rng () in
        let x = Array.init 500 (fun i -> float_of_int i /. 10.0) in
        let y = Array.map (fun v -> (1.5 *. v) +. 2.0 +. Ptrng_prng.Gaussian.draw g) x in
        let f = Regression.linear ~x ~y in
        Testkit.check_abs ~tol:(4.0 *. f.slope_se) "slope" 1.5 f.slope;
        Testkit.check_abs ~tol:(4.0 *. f.intercept_se) "intercept" 2.0 f.intercept);
    Testkit.case "weighted fit honours the weights" (fun () ->
        (* Two inconsistent measurements of a constant; the fit must land
           close to the precise one. *)
        let design = Matrix.of_rows [| [| 1.0 |]; [| 1.0 |]; [| 1.0 |] |] in
        let y = [| 10.0; 10.0; 20.0 |] in
        let sigma = [| 0.1; 0.1; 10.0 |] in
        let f = Regression.general ~design ~y ~sigma () in
        Testkit.check_abs ~tol:0.02 "estimate" 10.0 f.coeffs.(0));
    Testkit.case "covariance has the analytic scale for known sigma" (fun () ->
        (* Constant model, n unit-weight points: var(mean) = sigma^2/n. *)
        let n = 16 in
        let design = Matrix.of_rows (Array.make n [| 1.0 |]) in
        let y = Array.make n 5.0 in
        let sigma = Array.make n 2.0 in
        let f = Regression.general ~design ~y ~sigma () in
        Testkit.check_rel ~tol:1e-10 "se of mean" (2.0 /. 4.0) (Regression.coeff_se f 0));
    Testkit.case "rejects size mismatch" (fun () ->
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Regression.linear: length mismatch")
          (fun () -> ignore (Regression.linear ~x:[| 1.0 |] ~y:[| 1.0; 2.0 |])));
  ]

let allan_tests =
  let white_y ~sigma n = gaussian_array ~sigma n in
  [
    Testkit.case "white FM follows h0 / (2 tau)" (fun () ->
        let sigma = 0.5 and tau0 = 1e-3 in
        let y = white_y ~sigma 200000 in
        (* Discrete white with variance sigma^2 at rate 1/tau0 has
           h0 = 2 sigma^2 tau0. *)
        let h0 = 2.0 *. sigma *. sigma *. tau0 in
        List.iter
          (fun m ->
            let tau = float_of_int m *. tau0 in
            let est = Allan.avar_overlapping ~tau0 ~m y in
            Testkit.check_rel ~tol:0.05
              (Printf.sprintf "avar m=%d" m)
              (Allan.avar_white_fm ~h0 ~tau) est)
          [ 1; 4; 16; 64 ]);
    Testkit.case "overlapping and non-overlapping agree for white FM" (fun () ->
        let y = white_y ~sigma:1.0 100000 in
        let a = Allan.avar_overlapping ~tau0:1.0 ~m:8 y in
        let b = Allan.avar_nonoverlapping ~tau0:1.0 ~m:8 y in
        Testkit.check_rel ~tol:0.1 "estimators agree" a b);
    Testkit.case "flicker FM is flat at 2 ln2 h-1" (fun () ->
        let hm1 = 1e-6 and fs = 1.0 in
        let y =
          Testkit.source_samples (Ptrng_noise.Source.flicker_fm ~hm1 ()) (Testkit.rng ())
            (1 lsl 17)
        in
        let expected = Allan.avar_flicker_fm ~hm1 in
        List.iter
          (fun m ->
            let est = Allan.avar_overlapping ~tau0:(1.0 /. fs) ~m y in
            Testkit.check_rel ~tol:0.2 (Printf.sprintf "flicker m=%d" m) expected est)
          [ 8; 32; 128; 512 ]);
    Testkit.case "random-walk FM grows linearly in tau" (fun () ->
        let g = Testkit.rng () in
        let n = 1 lsl 16 in
        let y = Array.make n 0.0 in
        for i = 1 to n - 1 do
          y.(i) <- y.(i - 1) +. (0.01 *. Ptrng_prng.Gaussian.draw g)
        done;
        let a16 = Allan.avar_overlapping ~tau0:1.0 ~m:16 y in
        let a64 = Allan.avar_overlapping ~tau0:1.0 ~m:64 y in
        Testkit.check_rel ~tol:0.3 "x4 growth" 4.0 (a64 /. a16));
    Testkit.case "hadamard matches allan for white FM" (fun () ->
        let y = white_y ~sigma:1.0 100000 in
        let a = Allan.avar_overlapping ~tau0:1.0 ~m:16 y in
        let h = Allan.hvar_overlapping ~tau0:1.0 ~m:16 y in
        Testkit.check_rel ~tol:0.1 "hvar ~ avar" a h);
    Testkit.case "hadamard is immune to linear drift" (fun () ->
        let y = white_y ~sigma:0.1 50000 in
        let drifted = Array.mapi (fun i v -> v +. (1e-4 *. float_of_int i)) y in
        let h_clean = Allan.hvar_overlapping ~tau0:1.0 ~m:32 y in
        let h_drift = Allan.hvar_overlapping ~tau0:1.0 ~m:32 drifted in
        Testkit.check_rel ~tol:0.05 "drift rejected" h_clean h_drift);
    Testkit.case "mvar equals avar at m = 1" (fun () ->
        let y = white_y ~sigma:1.0 10000 in
        (* The estimators share their second differences at m = 1 but
           average n-1 vs n-2 of them. *)
        let a = Allan.avar_overlapping ~tau0:1.0 ~m:1 y in
        let m = Allan.mvar ~tau0:1.0 ~m:1 y in
        Testkit.check_rel ~tol:0.01 "identical up to edge terms" a m);
    Testkit.case "sweep skips oversized factors" (fun () ->
        let y = white_y ~sigma:1.0 100 in
        let pts = Allan.sweep ~tau0:1.0 ~ms:[| 1; 10; 1000 |] y in
        Alcotest.(check int) "kept points" 2 (Array.length pts));
    Testkit.case "octave_ms spacing" (fun () ->
        Alcotest.(check (array int)) "octaves" [| 1; 2; 4; 8; 16; 32 |]
          (Allan.octave_ms ~n:128));
    Testkit.case "needs enough samples" (fun () ->
        Alcotest.check_raises "short"
          (Invalid_argument "Allan.avar_overlapping: need >= 64 samples, got 10")
          (fun () -> ignore (Allan.avar_overlapping ~tau0:1.0 ~m:32 (Array.make 10 0.0))));
    Testkit.case "confidence interval brackets the estimate and shrinks" (fun () ->
        let point = { Allan.m = 8; tau = 8.0; avar = 2.0; neff = 100 } in
        let lo, hi = Allan.confidence_interval point in
        Testkit.check_true "bracket" (lo < 2.0 && 2.0 < hi);
        let wide_lo, wide_hi = Allan.confidence_interval { point with neff = 10 } in
        Testkit.check_true "fewer samples, wider band"
          (wide_hi -. wide_lo > hi -. lo);
        let lo99, hi99 = Allan.confidence_interval ~level:0.99 point in
        Testkit.check_true "higher level, wider band" (hi99 -. lo99 > hi -. lo));
    Testkit.case "CI coverage on white FM" (fun () ->
        (* Repeated estimates: the 1-sigma band should cover the truth
           roughly 2/3 of the time. *)
        let h0 = 2.0 and tau0 = 1.0 and m = 4 in
        let truth = Allan.avar_white_fm ~h0 ~tau:(float_of_int m *. tau0) in
        let covered = ref 0 in
        for seed = 1 to 60 do
          let g = Testkit.rng ~seed:(Int64.of_int seed) () in
          let y = Array.init 1024 (fun _ -> Ptrng_prng.Gaussian.draw g) in
          let pts = Allan.sweep ~tau0 ~ms:[| m |] y in
          let lo, hi = Allan.confidence_interval pts.(0) in
          if truth >= lo && truth <= hi then incr covered
        done;
        (* Nominal 68%; accept a broad band because the edf formula is
           a deliberate simplification. *)
        Testkit.check_in_range "coverage" ~lo:30.0 ~hi:60.9 (float_of_int !covered));
    Testkit.case "rejects a non-positive averaging factor" (fun () ->
        let y = white_y ~sigma:1.0 64 in
        List.iter
          (fun (name, estimator) ->
            Alcotest.check_raises name
              (Invalid_argument (Printf.sprintf "Allan.%s: m <= 0" name))
              (fun () -> ignore (estimator ~tau0:1.0 ~m:0 y)))
          [
            ("avar_overlapping", Allan.avar_overlapping);
            ("avar_nonoverlapping", Allan.avar_nonoverlapping);
            ("hvar_overlapping", Allan.hvar_overlapping);
            ("mvar", Allan.mvar);
          ]);
    Testkit.case "confidence interval rejects a level outside (0, 1)" (fun () ->
        let point = { Allan.m = 8; tau = 8.0; avar = 2.0; neff = 100 } in
        List.iter
          (fun level ->
            Alcotest.check_raises (Printf.sprintf "level %g" level)
              (Invalid_argument "Allan.confidence_interval: level outside (0,1)")
              (fun () -> ignore (Allan.confidence_interval ~level point)))
          [ 0.0; 1.0; 1.5 ]);
    Testkit.case "crossover tau rejects non-positive levels" (fun () ->
        Alcotest.check_raises "h0 0"
          (Invalid_argument "Allan.crossover_tau: non-positive level")
          (fun () -> ignore (Allan.crossover_tau ~h0:0.0 ~hm1:1.0));
        Alcotest.check_raises "hm1 -1"
          (Invalid_argument "Allan.crossover_tau: non-positive level")
          (fun () -> ignore (Allan.crossover_tau ~h0:1.0 ~hm1:(-1.0))));
    Testkit.case "crossover tau matches the paper's k/f0" (fun () ->
        (* h0/(4 ln2 h-1) = b_th f0 / (4 ln2 b_fl) / f0^... = k / f0. *)
        let f0 = 103e6 in
        let b_th = 276.04 in
        let b_fl = b_th *. f0 /. (4.0 *. log 2.0 *. 5354.0) in
        let h0 = 2.0 *. b_th /. (f0 *. f0) in
        let hm1 = 2.0 *. b_fl /. (f0 *. f0) in
        Testkit.check_rel ~tol:1e-9 "tau_c" (5354.0 /. f0) (Allan.crossover_tau ~h0 ~hm1));
  ]

let float_cmp_tests =
  let module Float_cmp = Ptrng_stats.Float_cmp in
  [
    Testkit.case "near_zero defaults to a 1e-12 band" (fun () ->
        Alcotest.(check (float 0.0)) "default_eps" 1e-12 Float_cmp.default_eps;
        Testkit.check_true "0" (Float_cmp.near_zero 0.0);
        Testkit.check_true "-0" (Float_cmp.near_zero (-0.0));
        Testkit.check_true "5e-13" (Float_cmp.near_zero 5e-13);
        Testkit.check_true "-5e-13" (Float_cmp.near_zero (-5e-13));
        Testkit.check_false "1e-12 is outside (strict)" (Float_cmp.near_zero 1e-12);
        Testkit.check_false "1e-6" (Float_cmp.near_zero 1e-6));
    Testkit.case "near_zero honours a custom eps" (fun () ->
        Testkit.check_true "1e-4 within 1e-3" (Float_cmp.near_zero ~eps:1e-3 1e-4);
        Testkit.check_false "1e-2 outside 1e-3" (Float_cmp.near_zero ~eps:1e-3 (-1e-2));
        Testkit.check_false "eps 0 admits nothing" (Float_cmp.near_zero ~eps:0.0 0.0));
    Testkit.case "near_zero is false for NaN and infinities" (fun () ->
        Testkit.check_false "nan" (Float_cmp.near_zero nan);
        Testkit.check_false "inf" (Float_cmp.near_zero infinity);
        Testkit.check_false "-inf" (Float_cmp.near_zero neg_infinity));
  ]

let tests_tests =
  [
    Testkit.case "chi2 gof accepts uniform counts" (fun () ->
        let rng = Testkit.rng () in
        let observed = Array.make 10 0 in
        for _ = 1 to 10000 do
          let b = Ptrng_prng.Rng.int_below rng 10 in
          observed.(b) <- observed.(b) + 1
        done;
        let expected = Array.make 10 1000.0 in
        let r = Tests.chi2_gof ~observed ~expected () in
        Testkit.check_true "p > 0.001" (r.p_value > 0.001));
    Testkit.case "chi2 gof rejects a skewed die" (fun () ->
        let observed = [| 2000; 1000; 1000; 1000; 1000; 1000 |] in
        let expected = Array.make 6 (7000.0 /. 6.0) in
        let r = Tests.chi2_gof ~observed ~expected () in
        Testkit.check_true "p tiny" (r.p_value < 1e-10));
    Testkit.case "ks accepts matching distribution" (fun () ->
        let rng = Testkit.rng () in
        let x = Array.init 5000 (fun _ -> Ptrng_prng.Rng.float rng) in
        let r = Tests.ks_one_sample ~cdf:(fun v -> Float.max 0.0 (Float.min 1.0 v)) x in
        Testkit.check_true "p > 0.001" (r.p_value > 0.001));
    Testkit.case "ks rejects wrong distribution" (fun () ->
        let rng = Testkit.rng () in
        let x = Array.init 5000 (fun _ -> Ptrng_prng.Rng.float rng ** 2.0) in
        let r = Tests.ks_one_sample ~cdf:(fun v -> Float.max 0.0 (Float.min 1.0 v)) x in
        Testkit.check_true "p tiny" (r.p_value < 1e-10));
    Testkit.case "normality ks on gaussian and uniform" (fun () ->
        let ok = Tests.normality_ks (gaussian_array 5000) in
        Testkit.check_true "gaussian passes" (ok.p_value > 0.001);
        let rng = Testkit.rng () in
        let u = Array.init 5000 (fun _ -> Ptrng_prng.Rng.float rng) in
        let bad = Tests.normality_ks u in
        Testkit.check_true "uniform fails" (bad.p_value < 1e-6));
    Testkit.case "anderson-darling accepts gaussian, rejects others" (fun () ->
        let g = Tests.anderson_darling_normal (gaussian_array 5000) in
        Testkit.check_true "gaussian passes" (g.p_value > 0.005);
        let rng = Testkit.rng () in
        let u = Array.init 5000 (fun _ -> Ptrng_prng.Rng.float rng) in
        Testkit.check_true "uniform fails"
          ((Tests.anderson_darling_normal u).p_value < 1e-6);
        let lap =
          Array.init 5000 (fun _ -> Ptrng_prng.Distributions.laplace rng ~mu:0.0 ~b:1.0)
        in
        Testkit.check_true "laplace tails fail"
          ((Tests.anderson_darling_normal lap).p_value < 1e-4));
    Testkit.case "anderson-darling beats KS on mild tail contamination" (fun () ->
        (* 2% of samples from a 5x-wider Gaussian: AD (tail-weighted)
           must produce a smaller p-value than KS. *)
        let g = Testkit.rng ~seed:88L () in
        let rng = Testkit.rng ~seed:89L () in
        let x =
          Array.init 8000 (fun _ ->
              let scale = if Ptrng_prng.Rng.float rng < 0.02 then 5.0 else 1.0 in
              scale *. Ptrng_prng.Gaussian.draw g)
        in
        let ad = Tests.anderson_darling_normal x in
        let ks = Tests.normality_ks x in
        Testkit.check_true "AD more sensitive" (ad.p_value <= ks.p_value));
    Testkit.case "ljung-box accepts iid, rejects AR(1)" (fun () ->
        let iid = gaussian_array 20000 in
        let r1 = Tests.ljung_box ~lags:10 iid in
        Testkit.check_true "iid passes" (r1.p_value > 0.001);
        let g = Testkit.rng () in
        let ar = Array.make 20000 0.0 in
        for i = 1 to 19999 do
          ar.(i) <- (0.3 *. ar.(i - 1)) +. Ptrng_prng.Gaussian.draw g
        done;
        let r2 = Tests.ljung_box ~lags:10 ar in
        Testkit.check_true "AR(1) fails" (r2.p_value < 1e-10));
    Testkit.case "runs test flags alternation" (fun () ->
        let alternating = Array.init 1000 (fun i -> if i land 1 = 0 then 1.0 else -1.0) in
        let r = Tests.runs_median alternating in
        Testkit.check_true "rejected" (r.p_value < 1e-10);
        let iid = gaussian_array 1000 in
        let r2 = Tests.runs_median iid in
        Testkit.check_true "iid passes" (r2.p_value > 0.001));
    Testkit.case "turning points flags a ramp" (fun () ->
        let ramp = Array.init 1000 float_of_int in
        let r = Tests.turning_points ramp in
        Testkit.check_true "rejected" (r.p_value < 1e-10);
        let iid = gaussian_array 1000 in
        Testkit.check_true "iid passes" ((Tests.turning_points iid).p_value > 0.001));
    Testkit.case "variance ratio: iid near 1, AR(1) inflated" (fun () ->
        let iid = gaussian_array 50000 in
        let r = Tests.variance_ratio iid ~q:8 in
        Testkit.check_true "iid passes" (r.p_value > 0.001);
        let g = Testkit.rng () in
        let ar = Array.make 50000 0.0 in
        for i = 1 to 49999 do
          ar.(i) <- (0.5 *. ar.(i - 1)) +. Ptrng_prng.Gaussian.draw g
        done;
        let r2 = Tests.variance_ratio ar ~q:8 in
        Testkit.check_true "AR(1) super-linear" (r2.statistic > 5.0));
  ]

let () =
  Alcotest.run "ptrng_stats"
    [
      ("descriptive", descriptive_tests);
      ("special", special_tests);
      ("matrix", matrix_tests);
      ("regression", regression_tests);
      ("allan", allan_tests);
      ("float_cmp", float_cmp_tests);
      ("tests", tests_tests);
    ]
