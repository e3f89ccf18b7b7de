open Ptrng_osc

let paper_phase = Pair.paper_relative
let f0 = Pair.paper_f0

let thermal_only_config () =
  Oscillator.config ~f0
    ~phase:{ Ptrng_noise.Psd_model.b_th = paper_phase.Ptrng_noise.Psd_model.b_th; b_fl = 0.0 }
    ()

let oscillator_tests =
  [
    Testkit.case "mean period is 1/f0" (fun () ->
        let cfg = thermal_only_config () in
        let p = Oscillator.periods (Testkit.rng ()) cfg ~n:100000 in
        Testkit.check_rel ~tol:1e-4 "mean" (1.0 /. f0) (Ptrng_stats.Descriptive.mean p));
    Testkit.case "thermal sigma formula" (fun () ->
        let cfg = thermal_only_config () in
        Testkit.check_rel ~tol:1e-3 "15.89 ps" 15.89e-12 (Oscillator.thermal_sigma cfg));
    Testkit.case "thermal-only jitter variance is b_th/f0^3" (fun () ->
        let cfg = thermal_only_config () in
        let p = Oscillator.periods (Testkit.rng ()) cfg ~n:200000 in
        let j = Oscillator.jitter_of_periods ~f0 p in
        Testkit.check_rel ~tol:0.02 "variance"
          (paper_phase.Ptrng_noise.Psd_model.b_th /. (f0 ** 3.0))
          (Ptrng_stats.Descriptive.variance j));
    Testkit.case "simulated jitter is Gaussian out to the tails" (fun () ->
        let cfg = Oscillator.config ~f0 ~phase:paper_phase () in
        let p = Oscillator.periods (Testkit.rng ~seed:21L ()) cfg ~n:20000 in
        let j = Oscillator.jitter_of_periods ~f0 p in
        let r = Ptrng_stats.Tests.anderson_darling_normal j in
        Testkit.check_true "AD normality" (r.p_value > 0.005));
    Testkit.case "thermal-only jitter realizations are independent" (fun () ->
        let cfg = thermal_only_config () in
        let p = Oscillator.periods (Testkit.rng ()) cfg ~n:100000 in
        let j = Oscillator.jitter_of_periods ~f0 p in
        let r = Ptrng_stats.Tests.ljung_box ~lags:20 j in
        Testkit.check_true "white" (r.p_value > 0.001));
    Testkit.case "flicker makes jitter realizations dependent" (fun () ->
        let cfg = Oscillator.config ~f0 ~phase:paper_phase () in
        let p = Oscillator.periods (Testkit.rng ()) cfg ~n:(1 lsl 17) in
        let j = Oscillator.jitter_of_periods ~f0 p in
        let r = Ptrng_stats.Tests.variance_ratio j ~q:4096 in
        Testkit.check_true "super-linear variance growth" (r.statistic > 5.0));
    Testkit.case "edges are strictly increasing and cumulative" (fun () ->
        let cfg = Oscillator.config ~f0 ~phase:paper_phase () in
        let p = Oscillator.periods (Testkit.rng ()) cfg ~n:10000 in
        let e = Oscillator.edges_of_periods ~t0:1.0 p in
        Alcotest.(check int) "length" 10001 (Array.length e);
        Testkit.check_rel ~tol:0.0 "origin" 1.0 e.(0);
        for i = 0 to 9999 do
          Testkit.check_true "monotone" (e.(i + 1) > e.(i))
        done;
        Testkit.check_rel ~tol:1e-12 "total"
          (1.0 +. Array.fold_left ( +. ) 0.0 p)
          e.(10000));
    Testkit.case "flicker produces the right s_N growth" (fun () ->
        (* Quadratic flicker contribution with matching coefficient from
           the oscillator's spectral 1/f synthesis. *)
        let n_test = 2048 in
        let cfg =
          Oscillator.config ~f0
            ~phase:{ Ptrng_noise.Psd_model.b_th = 0.0; b_fl = paper_phase.Ptrng_noise.Psd_model.b_fl }
            ()
        in
        let p = Oscillator.periods (Testkit.rng ~seed:11L ()) cfg ~n:(1 lsl 17) in
        let j = Oscillator.jitter_of_periods ~f0 p in
        let s = Ptrng_measure.S_process.realizations ~n:n_test j in
        let expected =
          8.0 *. log 2.0 *. paper_phase.Ptrng_noise.Psd_model.b_fl
          *. float_of_int (n_test * n_test) /. (f0 ** 4.0)
        in
        Testkit.check_rel ~tol:0.3 "spectral" expected
          (Ptrng_stats.Descriptive.variance s));
    Testkit.case "b_fl = 0 drops the 1/f part" (fun () ->
        let cfg =
          Oscillator.config ~f0
            ~phase:{ paper_phase with Ptrng_noise.Psd_model.b_fl = 0.0 } ()
        in
        let p = Oscillator.periods (Testkit.rng ()) cfg ~n:100000 in
        let j = Oscillator.jitter_of_periods ~f0 p in
        Testkit.check_rel ~tol:0.03 "thermal variance only"
          (paper_phase.Ptrng_noise.Psd_model.b_th /. (f0 ** 3.0))
          (Ptrng_stats.Descriptive.variance j));
    Testkit.case "rejects bad parameters" (fun () ->
        Alcotest.check_raises "f0" (Invalid_argument "Oscillator.config: f0 <= 0")
          (fun () -> ignore (Oscillator.config ~f0:0.0 ~phase:paper_phase ())));
    Testkit.case "random-walk FM produces the cubic sigma_N^2 regime" (fun () ->
        (* Aging only: Var(s_N) = (4 pi^2/3) h-2 N^3 / f0^3. *)
        let hm2 = 1e-14 in
        let cfg =
          Oscillator.config ~rw_hm2:hm2 ~f0
            ~phase:{ Ptrng_noise.Psd_model.b_th = 0.0; b_fl = 0.0 }
            ()
        in
        let p = Oscillator.periods (Testkit.rng ~seed:77L ()) cfg ~n:(1 lsl 17) in
        let j = Oscillator.jitter_of_periods ~f0 p in
        List.iter
          (fun n ->
            let s = Ptrng_measure.S_process.realizations ~n j in
            Testkit.check_rel ~tol:0.35
              (Printf.sprintf "N=%d" n)
              (Ptrng_model.Spectral.sigma2_n_random_walk ~hm2 ~f0 ~n)
              (Ptrng_stats.Descriptive.variance s))
          [ 64; 256; 1024 ];
        (* And the log-log growth exponent approaches 3. *)
        let pts =
          Ptrng_measure.Variance_curve.of_jitter ~f0
            ~ns:[| 16; 64; 256; 1024; 4096 |] j
        in
        let slope, _ = Ptrng_model.Bienayme.growth_exponent pts in
        Testkit.check_in_range "cubic regime" ~lo:2.7 ~hi:3.2 slope);
    Testkit.slow_case "excess-phase PSD reproduces S_phi = b_fl/f^3 + b_th/f^2"
      (fun () ->
        (* The full multilevel loop: simulate at event level, measure the
           paper's eq. 10 back out of phi(t).  One-sided estimate = 2x
           the paper's two-sided coefficients. *)
        let cfg = Oscillator.config ~f0 ~phase:paper_phase () in
        let p = Oscillator.periods (Testkit.rng ~seed:33L ()) cfg ~n:(1 lsl 20) in
        let phi = Oscillator.excess_phase ~f0 p in
        let s = Ptrng_signal.Psd.welch ~seg_len:(1 lsl 16) ~fs:f0 phi in
        let model f =
          2.0
          *. ((paper_phase.Ptrng_noise.Psd_model.b_fl /. (f ** 3.0))
             +. (paper_phase.Ptrng_noise.Psd_model.b_th /. (f *. f)))
        in
        List.iter
          (fun (f_lo, f_hi, tol) ->
            let f_mid = sqrt (f_lo *. f_hi) in
            let measured = Ptrng_signal.Psd.band_mean s ~f_lo ~f_hi in
            (* Compare with the band-averaged model, not the midpoint. *)
            let model_avg =
              let steps = 50 in
              let acc = ref 0.0 in
              for i = 0 to steps - 1 do
                let f = f_lo +. ((f_hi -. f_lo) *. (float_of_int i +. 0.5) /. float_of_int steps) in
                acc := !acc +. model f
              done;
              !acc /. float_of_int steps
            in
            Testkit.check_rel ~tol
              (Printf.sprintf "band around %.0f Hz" f_mid)
              model_avg measured)
          [ (2.0e4, 1.0e5, 0.25); (2.0e5, 1.0e6, 0.15); (2.0e6, 2.0e7, 0.1) ]);
  ]

let pair_tests =
  [
    Testkit.case "relative coefficients are split in half" (fun () ->
        let pair = Pair.paper_pair () in
        Testkit.check_rel ~tol:1e-12 "osc1 b_th"
          (paper_phase.Ptrng_noise.Psd_model.b_th /. 2.0)
          pair.Pair.osc1.Oscillator.phase.Ptrng_noise.Psd_model.b_th;
        Testkit.check_rel ~tol:1e-12 "osc2 b_fl"
          (paper_phase.Ptrng_noise.Psd_model.b_fl /. 2.0)
          pair.Pair.osc2.Oscillator.phase.Ptrng_noise.Psd_model.b_fl);
    Testkit.case "detuning separates the frequencies symmetrically" (fun () ->
        let pair =
          Pair.of_relative ~detuning:1e-3 ~f0 ~relative:paper_phase ()
        in
        Testkit.check_rel ~tol:1e-12 "mean preserved" f0
          ((pair.Pair.osc1.Oscillator.f0 +. pair.Pair.osc2.Oscillator.f0) /. 2.0);
        Testkit.check_rel ~tol:1e-9 "offset" 1e-3
          ((pair.Pair.osc1.Oscillator.f0 -. pair.Pair.osc2.Oscillator.f0) /. f0));
    Testkit.case "paper_relative implies the paper's r_N ratio" (fun () ->
        (* b_th f0 / (4 ln2 b_fl) = 5354. *)
        let k =
          paper_phase.Ptrng_noise.Psd_model.b_th *. f0
          /. (4.0 *. log 2.0 *. paper_phase.Ptrng_noise.Psd_model.b_fl)
        in
        Testkit.check_rel ~tol:1e-9 "k ratio" 5354.0 k);
    Testkit.case "relative jitter variance is the sum of halves" (fun () ->
        let pair =
          Pair.of_relative ~f0
            ~relative:{ paper_phase with Ptrng_noise.Psd_model.b_fl = 0.0 } ()
        in
        let p1, p2 = Pair.simulate (Testkit.rng ()) pair ~n:200000 in
        let rel = Ptrng_measure.S_process.relative_jitter ~periods1:p1 ~periods2:p2 in
        let j = Ptrng_signal.Filter.remove_mean rel in
        Testkit.check_rel ~tol:0.03 "variance"
          (paper_phase.Ptrng_noise.Psd_model.b_th /. (f0 ** 3.0))
          (Ptrng_stats.Descriptive.variance j));
    Testkit.case "simulate draws independent streams" (fun () ->
        let pair = Pair.paper_pair () in
        let p1, p2 = Pair.simulate (Testkit.rng ()) pair ~n:50000 in
        let j1 = Ptrng_signal.Filter.remove_mean p1 in
        let j2 = Ptrng_signal.Filter.remove_mean p2 in
        let cross = ref 0.0 in
        for i = 0 to 49999 do
          cross := !cross +. (j1.(i) *. j2.(i))
        done;
        let corr =
          !cross /. float_of_int 50000
          /. (Ptrng_stats.Descriptive.std j1 *. Ptrng_stats.Descriptive.std j2)
        in
        Testkit.check_abs ~tol:0.05 "cross-correlation" 0.0 corr);
  ]

let restart_tests =
  let single_osc_phase =
    (* One oscillator carrying the full relative coefficients, so the
       numbers are directly comparable to the free-running analysis. *)
    paper_phase
  in
  [
    Testkit.case "accumulated variance across restarts is thermal-linear" (fun () ->
        let cfg = Oscillator.config ~f0 ~phase:single_osc_phase () in
        let runs = Restart.ensemble (Testkit.rng ~seed:44L ()) cfg ~restarts:4000 ~n:4096 in
        let sigma_th2 = single_osc_phase.Ptrng_noise.Psd_model.b_th /. (f0 ** 3.0) in
        List.iter
          (fun n ->
            Testkit.check_rel ~tol:0.1
              (Printf.sprintf "N=%d" n)
              (float_of_int n *. sigma_th2)
              (Restart.accumulated_variance runs ~n))
          [ 64; 512; 4096 ]);
    Testkit.case "restart curve has growth exponent ~1 despite flicker" (fun () ->
        let cfg = Oscillator.config ~f0 ~phase:single_osc_phase () in
        let runs = Restart.ensemble (Testkit.rng ~seed:45L ()) cfg ~restarts:2000 ~n:4096 in
        let curve = Restart.variance_curve runs ~ns:[| 16; 64; 256; 1024; 4096 |] in
        let slope = Restart.growth_exponent curve in
        Testkit.check_abs ~tol:0.07 "linear" 1.0 slope);
    Testkit.case "free-running s_N beats restarts only because of flicker" (fun () ->
        (* Same oscillator, free-running: the paper's sigma_N^2 at large N
           exceeds the restart ensemble variance at the same N. *)
        let cfg = Oscillator.config ~f0 ~phase:single_osc_phase () in
        let n_test = 4096 in
        let runs = Restart.ensemble (Testkit.rng ~seed:46L ()) cfg ~restarts:500 ~n:n_test in
        let restart_var = Restart.accumulated_variance runs ~n:n_test in
        let free =
          Ptrng_model.Spectral.sigma2_n single_osc_phase ~f0 ~n:n_test /. 2.0
        in
        (* sigma_N^2 is a two-block statistic: /2 for one accumulation.
           The flicker excess ratio is 1 + N/5354 = 1.77 at N = 4096. *)
        Testkit.check_rel ~tol:0.15 "flicker excess ratio"
          (1.0 +. (float_of_int n_test /. 5354.0))
          (free /. restart_var));
    Testkit.case "rejects degenerate sizes" (fun () ->
        let cfg = Oscillator.config ~f0 ~phase:single_osc_phase () in
        Alcotest.check_raises "restarts" (Invalid_argument "Restart.ensemble: restarts <= 0")
          (fun () -> ignore (Restart.ensemble (Testkit.rng ()) cfg ~restarts:0 ~n:8)));
  ]

let () =
  Alcotest.run "ptrng_osc"
    [
      ("oscillator", oscillator_tests);
      ("pair", pair_tests);
      ("restart", restart_tests);
    ]
