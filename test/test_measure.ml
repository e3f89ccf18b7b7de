open Ptrng_measure

let f0 = Ptrng_osc.Pair.paper_f0
let paper_phase = Ptrng_osc.Pair.paper_relative

let s_process_tests =
  [
    Testkit.case "cumulative prefix sums" (fun () ->
        Alcotest.(check (array (float 1e-12))) "cumsum" [| 0.0; 1.0; 3.0; 6.0 |]
          (S_process.cumulative [| 1.0; 2.0; 3.0 |]));
    Testkit.case "realizations match the hand-computed definition" (fun () ->
        (* j = [1;2;3;4;5;6], N = 2:
           s(0) = (3+4) - (1+2) = 4, s(1) = (4+5) - (2+3) = 4,
           s(2) = (5+6) - (3+4) = 4. *)
        let j = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
        Alcotest.(check (array (float 1e-12))) "overlapping" [| 4.0; 4.0; 4.0 |]
          (S_process.realizations ~n:2 j));
    Testkit.case "stride controls overlap" (fun () ->
        let j = Array.init 12 float_of_int in
        let disjoint = S_process.realizations ~stride:4 ~n:2 j in
        Alcotest.(check int) "count" 3 (Array.length disjoint));
    Testkit.case "a linear jitter drift cancels out" (fun () ->
        (* Constant mean offset (frequency mismatch) must not leak into
           s_N: second difference of a linear cumulative sum is 0. *)
        let j = Array.make 100 5.0 in
        let s = S_process.realizations ~n:10 j in
        Array.iter (fun v -> Testkit.check_abs ~tol:1e-9 "zero" 0.0 v) s);
    Testkit.case "rejects short series" (fun () ->
        Alcotest.check_raises "short"
          (Invalid_argument "S_process.realizations: series shorter than 2n")
          (fun () -> ignore (S_process.realizations ~n:8 (Array.make 15 0.0))));
    Testkit.case "relative jitter subtracts pointwise" (fun () ->
        let r =
          S_process.relative_jitter ~periods1:[| 3.0; 5.0 |] ~periods2:[| 1.0; 1.0; 9.0 |]
        in
        Alcotest.(check (array (float 1e-12))) "difference" [| 2.0; 4.0 |] r);
  ]

let counter_tests =
  [
    Testkit.case "counts edges in deterministic windows" (fun () ->
        (* Osc1 at 1 Hz (edges 0..29), Osc2 at 0.5 Hz (edges 0,2,4...).
           Windows of 3 Osc2 cycles = 6 s -> exactly 6 Osc1 edges. *)
        let edges1 = Array.init 30 float_of_int in
        let edges2 = Array.init 15 (fun i -> 2.0 *. float_of_int i) in
        let q = Counter.q_counts ~edges1 ~edges2 ~n:3 in
        Array.iter (fun c -> Alcotest.(check int) "window count" 6 c) q;
        Alcotest.(check int) "windows" 4 (Array.length q));
    Testkit.case "drops windows not covered by osc1" (fun () ->
        (* Osc2 spans 28 s but Osc1 only 10 s: only fully covered
           windows may be counted. *)
        let edges1 = Array.init 11 float_of_int in
        let edges2 = Array.init 15 (fun i -> 2.0 *. float_of_int i) in
        let q = Counter.q_counts ~edges1 ~edges2 ~n:2 in
        Alcotest.(check int) "covered windows" 2 (Array.length q);
        Array.iter (fun c -> Alcotest.(check int) "full count" 4 c) q);
    Testkit.case "s_of_counts scales adjacent differences" (fun () ->
        let s = Counter.s_of_counts ~f0:10.0 [| 100; 104; 101 |] in
        Alcotest.(check (array (float 1e-12))) "diffs" [| 0.4; -0.3 |] s);
    Testkit.case "detuned perfect oscillators show only quantization" (fun () ->
        let det = 1e-4 in
        let f1 = f0 *. (1.0 +. (det /. 2.0)) and f2 = f0 *. (1.0 -. (det /. 2.0)) in
        let n = 1 lsl 16 in
        let edges1 = Array.init (n + 1) (fun i -> float_of_int i /. f1) in
        let edges2 = Array.init (n + 1) (fun i -> float_of_int i /. f2) in
        let s = Counter.s_realizations ~edges1 ~edges2 ~f0 ~n:512 in
        let v = Ptrng_stats.Descriptive.variance s *. f0 *. f0 in
        (* Pure sawtooth quantization stays well below one count^2. *)
        Testkit.check_in_range "quantization floor" ~lo:0.0 ~hi:1.0 v);
    Testkit.case "rejects degenerate inputs" (fun () ->
        Alcotest.check_raises "n" (Invalid_argument "Counter.q_counts: n <= 0") (fun () ->
            ignore (Counter.q_counts ~edges1:[| 0.0; 1.0 |] ~edges2:[| 0.0; 1.0 |] ~n:0)));
  ]

let variance_curve_tests =
  [
    Testkit.case "log2 grid" (fun () ->
        Alcotest.(check (array int)) "octaves" [| 4; 8; 16; 32 |]
          (Variance_curve.log2_grid ~n_min:4 ~n_max:32));
    Testkit.case "log grid is increasing and deduplicated" (fun () ->
        let g = Variance_curve.log_grid ~n_min:4 ~n_max:10000 ~per_decade:5 in
        for i = 1 to Array.length g - 1 do
          Testkit.check_true "strictly increasing" (g.(i) > g.(i - 1))
        done;
        Testkit.check_true "covers the top" (g.(Array.length g - 1) = 10000));
    Testkit.case "white jitter produces a linear curve" (fun () ->
        let g = Testkit.rng () in
        let sigma = 15.89e-12 in
        let j = Array.init (1 lsl 17) (fun _ -> sigma *. Ptrng_prng.Gaussian.draw g) in
        let ns = [| 16; 64; 256 |] in
        let pts = Variance_curve.of_jitter ~f0 ~ns j in
        (* Estimator scatter at N=256 on 2^17 samples is ~10% (1 sigma). *)
        Array.iter
          (fun (p : Variance_curve.point) ->
            Testkit.check_rel ~tol:0.25
              (Printf.sprintf "N=%d" p.n)
              (2.0 *. float_of_int p.n *. sigma *. sigma)
              p.sigma2)
          pts;
        (* Error bars should bracket the truth most of the time. *)
        Array.iter
          (fun (p : Variance_curve.point) ->
            let truth = 2.0 *. float_of_int p.n *. sigma *. sigma in
            Testkit.check_true "within 4 se" (Float.abs (p.sigma2 -. truth) < 4.0 *. p.stderr))
          pts);
    Testkit.case "overlapping and disjoint estimates agree" (fun () ->
        let g = Testkit.rng () in
        let j = Array.init (1 lsl 16) (fun _ -> Ptrng_prng.Gaussian.draw g) in
        let ns = [| 32 |] in
        let a = (Variance_curve.of_jitter ~overlapping:true ~f0 ~ns j).(0) in
        let b = (Variance_curve.of_jitter ~overlapping:false ~f0 ~ns j).(0) in
        Testkit.check_rel ~tol:0.1 "consistent" a.Variance_curve.sigma2 b.Variance_curve.sigma2);
    Testkit.case "grid entries beyond the data are skipped" (fun () ->
        let j = Array.make 100 0.001 in
        let pts = Variance_curve.of_jitter ~f0 ~ns:[| 8; 64; 512 |] j in
        Alcotest.(check int) "kept" 1 (Array.length pts));
  ]

let robustness_tests =
  [
    Testkit.case "variance curve is distribution-free (Laplace jitter)" (fun () ->
        (* The sigma_N^2 analysis uses only second moments; heavy-ish
           tails must not bias the extraction. *)
        let rng = Testkit.rng ~seed:71L () in
        let sigma = 15.89e-12 in
        let b = sigma /. sqrt 2.0 in
        let j =
          Array.init (1 lsl 17) (fun _ ->
              Ptrng_prng.Distributions.laplace rng ~mu:0.0 ~b)
        in
        let pts = Variance_curve.of_jitter ~f0 ~ns:[| 16; 64; 256 |] j in
        Array.iter
          (fun (p : Variance_curve.point) ->
            Testkit.check_rel ~tol:0.25
              (Printf.sprintf "N=%d" p.n)
              (2.0 *. float_of_int p.n *. sigma *. sigma)
              p.sigma2)
          pts);
    Testkit.case "fit survives an outlier-contaminated curve point" (fun () ->
        (* One corrupted grid point (e.g. a burst during measurement)
           moves the weighted fit, but bounded by its claimed error. *)
        let ns = Variance_curve.log2_grid ~n_min:4 ~n_max:16384 in
        let pts =
          Array.map
            (fun n ->
              let fn = float_of_int n in
              let scaled = (5.36e-6 *. fn) +. (1.0e-9 *. fn *. fn) in
              { Variance_curve.n; sigma2 = scaled /. (f0 *. f0); scaled;
                neff = 1000; stderr = 0.02 *. scaled /. (f0 *. f0) })
            ns
        in
        (* Corrupt one mid-grid point by 3x but with an honest (large)
           error bar: the weighted fit must stay within a few percent. *)
        let k = Array.length pts / 2 in
        let p = pts.(k) in
        pts.(k) <-
          { p with Variance_curve.scaled = p.scaled *. 3.0;
            sigma2 = p.sigma2 *. 3.0; stderr = p.stderr *. 200.0 };
        let fit = Fit.fit ~f0 pts in
        Testkit.check_rel ~tol:0.05 "a" 5.36e-6 fit.a;
        Testkit.check_rel ~tol:0.05 "b" 1.0e-9 fit.b);
  ]

let fit_tests =
  let synthetic_points ?(noise = 0.0) ~a ~b ~c ns =
    let g = Testkit.rng ~seed:21L () in
    Array.map
      (fun n ->
        let fn = float_of_int n in
        let scaled =
          ((a *. fn) +. (b *. fn *. fn) +. c)
          *. (1.0 +. (noise *. Ptrng_prng.Gaussian.draw g))
        in
        {
          Variance_curve.n;
          sigma2 = scaled /. (f0 *. f0);
          scaled;
          neff = 1000;
          stderr = (if noise = 0.0 then Float.nan else noise *. scaled /. (f0 *. f0));
        })
      ns
  in
  [
    Testkit.case "recovers exact coefficients" (fun () ->
        let ns = Variance_curve.log2_grid ~n_min:4 ~n_max:16384 in
        let pts = synthetic_points ~a:5.36e-6 ~b:1.036e-9 ~c:0.0 ns in
        let fit = Fit.fit ~f0 pts in
        Testkit.check_rel ~tol:1e-6 "a" 5.36e-6 fit.a;
        Testkit.check_rel ~tol:1e-6 "b" 1.036e-9 fit.b);
    Testkit.case "maps coefficients to (b_th, b_fl)" (fun () ->
        let ns = Variance_curve.log2_grid ~n_min:4 ~n_max:16384 in
        let pts = synthetic_points ~a:5.36e-6 ~b:1.036e-9 ~c:0.0 ns in
        let phase = Fit.phase_of (Fit.fit ~f0 pts) in
        Testkit.check_rel ~tol:1e-6 "b_th" (5.36e-6 *. f0 /. 2.0) phase.Ptrng_noise.Psd_model.b_th;
        Testkit.check_rel ~tol:1e-6 "b_fl"
          (1.036e-9 *. f0 *. f0 /. (8.0 *. log 2.0))
          phase.Ptrng_noise.Psd_model.b_fl);
    Testkit.case "with_floor recovers the quantization constant" (fun () ->
        let ns = Variance_curve.log2_grid ~n_min:4 ~n_max:65536 in
        let pts = synthetic_points ~a:5.36e-6 ~b:1.036e-9 ~c:0.33 ns in
        let fit = Fit.fit ~with_floor:true ~f0 pts in
        Testkit.check_rel ~tol:1e-6 "c" 0.33 fit.c;
        Testkit.check_rel ~tol:1e-5 "a survives" 5.36e-6 fit.a);
    Testkit.case "noisy fit stays within standard errors" (fun () ->
        let ns = Variance_curve.log2_grid ~n_min:4 ~n_max:16384 in
        let pts = synthetic_points ~noise:0.05 ~a:5.36e-6 ~b:1.036e-9 ~c:0.0 ns in
        let fit = Fit.fit ~f0 pts in
        Testkit.check_abs ~tol:(4.0 *. fit.a_se) "a" 5.36e-6 fit.a;
        Testkit.check_abs ~tol:(4.0 *. fit.b_se) "b" 1.036e-9 fit.b);
    Testkit.case "predict evaluates the model" (fun () ->
        let ns = Variance_curve.log2_grid ~n_min:4 ~n_max:16384 in
        let pts = synthetic_points ~a:2.0 ~b:3.0 ~c:0.0 ns in
        let fit = Fit.fit ~f0 pts in
        Testkit.check_rel ~tol:1e-6 "prediction" ((2.0 *. 10.0) +. (3.0 *. 100.0))
          (Fit.predict fit 10));
    Testkit.case "rejects insufficient points" (fun () ->
        let pts = synthetic_points ~a:1.0 ~b:1.0 ~c:0.0 [| 4; 8 |] in
        Alcotest.check_raises "points" (Invalid_argument "Fit.fit: not enough curve points")
          (fun () -> ignore (Fit.fit ~f0 pts)));
  ]

let thermal_extract_tests =
  [
    Testkit.case "paper numbers: sigma, ratio, k, threshold" (fun () ->
        let e = Thermal_extract.of_phase ~f0 paper_phase in
        Testkit.check_rel ~tol:2e-3 "sigma 15.89 ps" 15.89e-12 e.sigma_thermal;
        Testkit.check_rel ~tol:2e-3 "1.6 permil" 1.64e-3 e.sigma_relative;
        Testkit.check_rel ~tol:1e-6 "k = 5354" 5354.0 e.k_ratio;
        Alcotest.(check int) "N < 281 at 95%" 281
          (Thermal_extract.independence_threshold e ~confidence:0.95));
    Testkit.case "r_N follows k/(k+N)" (fun () ->
        let e = Thermal_extract.of_phase ~f0 paper_phase in
        Testkit.check_rel ~tol:1e-9 "r_0" 1.0 (Thermal_extract.r_n e 0);
        Testkit.check_rel ~tol:1e-6 "r_5354" 0.5 (Thermal_extract.r_n e 5354);
        Testkit.check_true "decreasing"
          (Thermal_extract.r_n e 100 > Thermal_extract.r_n e 1000));
    Testkit.case "pure thermal noise has infinite k" (fun () ->
        let e =
          Thermal_extract.of_phase ~f0 { Ptrng_noise.Psd_model.b_th = 100.0; b_fl = 0.0 }
        in
        Testkit.check_rel ~tol:1e-12 "r_N = 1" 1.0 (Thermal_extract.r_n e 1000000);
        Alcotest.(check int) "no threshold" max_int
          (Thermal_extract.independence_threshold e ~confidence:0.95));
    Testkit.case "rejects non-positive thermal coefficient" (fun () ->
        Alcotest.check_raises "b_th" (Invalid_argument "Thermal_extract.of_phase: b_th <= 0")
          (fun () ->
            ignore
              (Thermal_extract.of_phase ~f0 { Ptrng_noise.Psd_model.b_th = 0.0; b_fl = 1.0 })));
  ]

let quantization_tests =
  [
    Testkit.case "predicts the pure-sawtooth floor (no noise, detuned)" (fun () ->
        (* Perfect oscillators: measured floors from the event-level
           counter must track min(2 N delta, 1/2). *)
        let det = 1e-4 in
        let f1 = f0 *. (1.0 +. (det /. 2.0)) and f2 = f0 *. (1.0 -. (det /. 2.0)) in
        let m = 1 lsl 16 in
        let edges1 = Array.init (m + 1) (fun i -> float_of_int i /. f1) in
        let edges2 = Array.init (m + 1) (fun i -> float_of_int i /. f2) in
        let zero = { Ptrng_noise.Psd_model.b_th = 0.0; b_fl = 0.0 } in
        List.iter
          (fun n ->
            let s = Counter.s_realizations ~edges1 ~edges2 ~f0 ~n in
            let measured = Ptrng_stats.Descriptive.variance s *. f0 *. f0 in
            let predicted = Quantization.floor_variance ~phase:zero ~f0 ~detuning:det ~n in
            Testkit.check_rel ~tol:0.6 (Printf.sprintf "N=%d" n) predicted measured)
          [ 64; 512 ]);
    Testkit.case "saturates at 1/2 for large drift" (fun () ->
        let zero = { Ptrng_noise.Psd_model.b_th = 0.0; b_fl = 0.0 } in
        Testkit.check_rel ~tol:1e-12 "cap" Quantization.saturated_floor
          (Quantization.floor_variance ~phase:zero ~f0 ~detuning:1e-2 ~n:1000));
    Testkit.case "drift combines detuning and jitter in quadrature" (fun () ->
        let d1 = Quantization.drift_per_window ~phase:paper_phase ~f0 ~detuning:0.0 ~n:64 in
        let d2 =
          Quantization.drift_per_window
            ~phase:{ Ptrng_noise.Psd_model.b_th = 0.0; b_fl = 0.0 }
            ~f0 ~detuning:1e-4 ~n:64
        in
        let both =
          Quantization.drift_per_window ~phase:paper_phase ~f0 ~detuning:1e-4 ~n:64
        in
        Testkit.check_rel ~tol:1e-9 "quadrature" (sqrt ((d1 *. d1) +. (d2 *. d2))) both);
    Testkit.case "paper operating point is quantization-dominated until ~1e4" (fun () ->
        Testkit.check_true "N=1000 dominated"
          (Quantization.quantization_dominated ~phase:paper_phase ~f0 ~detuning:1e-4
             ~n:1000);
        Testkit.check_false "N=100000 signal-dominated"
          (Quantization.quantization_dominated ~phase:paper_phase ~f0 ~detuning:1e-4
             ~n:100000));
  ]

let online_test_tests =
  (* Mechanism-level scenario: thermal jitter amplified 1000x so the
     counter resolves it with a small simulation budget.  The
     paper-calibrated scenario (which needs ~0.4 s of simulated silicon
     time) runs in the benchmark harness. *)
  let amplified =
    { Ptrng_noise.Psd_model.b_th = 276.04 *. 1000.0;
      b_fl = paper_phase.Ptrng_noise.Psd_model.b_fl }
  in
  let test_cfg =
    { Online_test.ns = [| 256; 1024; 4096; 16384 |]; windows = 48; min_fraction = 0.4 }
  in
  let simulate_edges ~seed pair n =
    let p1, p2 = Ptrng_osc.Pair.simulate (Testkit.rng ~seed ()) pair ~n in
    ( Ptrng_osc.Oscillator.edges_of_periods p1,
      Ptrng_osc.Oscillator.edges_of_periods p2 )
  in
  [
    Testkit.case "clean generator passes" (fun () ->
        let n = Online_test.required_cycles test_cfg + 8192 in
        let pair = Ptrng_osc.Pair.of_relative ~f0 ~relative:amplified () in
        let edges1, edges2 = simulate_edges ~seed:31L pair n in
        let v =
          Online_test.run test_cfg ~f0 ~reference_b_th:amplified.b_th ~edges1 ~edges2
        in
        Testkit.check_true "pass" v.pass;
        Testkit.check_rel ~tol:0.6 "estimate near reference" amplified.b_th v.b_th_est);
    Testkit.case "thermal quench trips the alarm while flicker survives" (fun () ->
        let n = Online_test.required_cycles test_cfg + 8192 in
        let pair = Ptrng_osc.Pair.of_relative ~f0 ~relative:amplified () in
        let attacked = Ptrng_trng.Attack.thermal_quench ~factor:0.05 pair in
        let edges1, edges2 = simulate_edges ~seed:32L attacked n in
        let v =
          Online_test.run test_cfg ~f0 ~reference_b_th:amplified.b_th ~edges1 ~edges2
        in
        Testkit.check_false "alarm" v.pass);
    Testkit.case "rejects malformed configs" (fun () ->
        Alcotest.check_raises "grid too small"
          (Invalid_argument "Online_test: need >= 4 grid points")
          (fun () ->
            let cfg = { Online_test.ns = [| 64; 512 |]; windows = 16; min_fraction = 0.5 } in
            ignore
              (Online_test.run cfg ~f0 ~reference_b_th:1.0 ~edges1:[| 0.0 |]
                 ~edges2:[| 0.0 |])));
    Testkit.case "required_cycles accounting" (fun () ->
        let cfg =
          { Online_test.ns = [| 64; 512 |]; windows = 100; min_fraction = 0.5 }
        in
        Alcotest.(check int) "cycles" ((64 + 512) * 100) (Online_test.required_cycles cfg));
  ]

let () =
  Alcotest.run "ptrng_measure"
    [
      ("s_process", s_process_tests);
      ("counter", counter_tests);
      ("variance_curve", variance_curve_tests);
      ("fit", fit_tests);
      ("robustness", robustness_tests);
      ("thermal_extract", thermal_extract_tests);
      ("quantization", quantization_tests);
      ("online_test", online_test_tests);
    ]
