(* Edge-case and cross-module behaviors not covered by the per-library
   suites: boundary inputs, parameter extremes, and API contracts that
   only show up in combination. *)

let signal_edges =
  [
    Testkit.case "fft of length 1 and 2" (fun () ->
        let re = Float.Array.make 1 3.5 and im = Float.Array.make 1 0.0 in
        Ptrng_signal.Fft.forward_pow2 ~re ~im;
        Testkit.check_rel ~tol:0.0 "n=1 identity" 3.5 (Float.Array.get re 0);
        let re = Float.Array.init 2 (fun i -> float_of_int (i + 1)) in
        let im = Float.Array.make 2 0.0 in
        Ptrng_signal.Fft.forward_pow2 ~re ~im;
        Testkit.check_rel ~tol:1e-12 "n=2 sum" 3.0 (Float.Array.get re 0);
        Testkit.check_rel ~tol:1e-12 "n=2 diff" (-1.0) (Float.Array.get re 1));
    Testkit.case "dft of a single sample is itself" (fun () ->
        let fr, fi = Ptrng_signal.Fft.dft ~re:[| 7.0 |] ~im:[| -2.0 |] in
        Testkit.check_rel ~tol:0.0 "re" 7.0 fr.(0);
        Testkit.check_rel ~tol:0.0 "im" (-2.0) fi.(0));
    Testkit.case "window of one point" (fun () ->
        List.iter
          (fun kind ->
            let w = Ptrng_signal.Window.make kind 1 in
            Alcotest.(check int) "length" 1 (Array.length w))
          [ Ptrng_signal.Window.Rectangular; Hann; Blackman ]);
    Testkit.case "welch with zero overlap" (fun () ->
        let x = Array.make 1024 1.0 in
        let s = Ptrng_signal.Psd.welch ~overlap:0.0 ~seg_len:256 ~fs:1.0 x in
        Alcotest.(check int) "segments" 4 s.segments);
    Testkit.case "autocovariance lag 0 equals biased variance" (fun () ->
        let g = Testkit.rng () in
        let x = Array.init 1000 (fun _ -> Ptrng_prng.Gaussian.draw g) in
        let c = Ptrng_signal.Autocorr.autocovariance ~max_lag:0 x in
        Testkit.check_rel ~tol:1e-9 "c0"
          (Ptrng_stats.Descriptive.variance_biased x)
          c.(0));
    Testkit.case "fir with kernel longer than the signal" (fun () ->
        let y = Ptrng_signal.Filter.fir_direct ~h:(Array.make 10 0.1) [| 1.0; 1.0 |] in
        Alcotest.(check int) "length" 2 (Array.length y);
        Testkit.check_rel ~tol:1e-12 "causal tail" 0.2 y.(1));
  ]

let stats_edges =
  [
    Testkit.case "quantile of a singleton" (fun () ->
        Testkit.check_rel ~tol:0.0 "median" 5.0 (Ptrng_stats.Descriptive.median [| 5.0 |]));
    Testkit.case "variance of two equal points is zero" (fun () ->
        Testkit.check_abs ~tol:0.0 "zero" 0.0
          (Ptrng_stats.Descriptive.variance [| 1.0; 1.0 |]));
    Testkit.case "gamma_p extreme arguments" (fun () ->
        Testkit.check_abs ~tol:1e-12 "x=0" 0.0 (Ptrng_stats.Special.gamma_p ~a:2.0 ~x:0.0);
        Testkit.check_rel ~tol:1e-9 "x>>a" 1.0 (Ptrng_stats.Special.gamma_p ~a:2.0 ~x:200.0);
        Testkit.check_rel ~tol:1e-6 "large a median"
          0.5
          (Ptrng_stats.Special.gamma_p ~a:1000.0 ~x:(1000.0 -. (1.0 /. 3.0))));
    Testkit.case "normal tail symmetry far out" (fun () ->
        let p = Ptrng_stats.Special.normal_sf 6.0 in
        Testkit.check_in_range "tail magnitude" ~lo:0.9e-9 ~hi:1.1e-9 p;
        Testkit.check_rel ~tol:1e-9 "symmetry" p (Ptrng_stats.Special.normal_cdf (-6.0)));
    Testkit.case "matrix 1x1 operations" (fun () ->
        let a = Ptrng_stats.Matrix.of_rows [| [| 4.0 |] |] in
        let x = Ptrng_stats.Matrix.solve_lu a [| 8.0 |] in
        Testkit.check_rel ~tol:0.0 "solve" 2.0 x.(0);
        Testkit.check_rel ~tol:0.0 "inverse" 0.25
          (Ptrng_stats.Matrix.get (Ptrng_stats.Matrix.inverse a) 0 0));
    Testkit.case "allan closed forms at the crossover are equal" (fun () ->
        let h0 = 1e-10 and hm1 = 3e-12 in
        let tau = Ptrng_stats.Allan.crossover_tau ~h0 ~hm1 in
        Testkit.check_rel ~tol:1e-12 "equal"
          (Ptrng_stats.Allan.avar_white_fm ~h0 ~tau)
          (Ptrng_stats.Allan.avar_flicker_fm ~hm1));
    Testkit.case "chi2 gof guards degrees of freedom" (fun () ->
        Alcotest.check_raises "ddof eats df"
          (Invalid_argument "Tests.chi2_gof: no degrees of freedom left")
          (fun () ->
            ignore
              (Ptrng_stats.Tests.chi2_gof ~ddof:1 ~observed:[| 1; 2 |]
                 ~expected:[| 1.5; 1.5 |] ())));
  ]

let model_edges =
  [
    Testkit.case "sigma2_n at N=1 is dominated by thermal" (fun () ->
        let p = Ptrng_osc.Pair.paper_relative in
        let f0 = Ptrng_osc.Pair.paper_f0 in
        let total = Ptrng_model.Spectral.sigma2_n p ~f0 ~n:1 in
        let thermal = Ptrng_model.Spectral.sigma2_n_thermal p ~f0 ~n:1 in
        Testkit.check_rel ~tol:1e-3 "thermal share" 1.0 (thermal /. total));
    Testkit.case "entropy approximation endpoints" (fun () ->
        (* At s = 0 the first-order formula returns its (untrustworthy)
           analytic value 1 - 4/(pi^2 ln 2); at large s it saturates. *)
        Testkit.check_rel ~tol:1e-12 "s=0"
          (1.0 -. (4.0 /. (Float.pi *. Float.pi *. log 2.0)))
          (Ptrng_model.Entropy.entropy_lower_bound ~phase_std:0.0);
        Testkit.check_rel ~tol:1e-12 "s huge" 1.0
          (Ptrng_model.Entropy.entropy_lower_bound ~phase_std:50.0));
    Testkit.case "min entropy at zero diffusion is zero" (fun () ->
        Testkit.check_abs ~tol:1e-9 "deterministic" 0.0
          (Ptrng_model.Entropy.min_entropy ~phase_std:0.0));
    Testkit.case "design: divisor 1 suffices for tiny targets" (fun () ->
        let extract =
          Ptrng_measure.Thermal_extract.of_phase ~f0:Ptrng_osc.Pair.paper_f0
            Ptrng_osc.Pair.paper_relative
        in
        Alcotest.(check int) "K=1" 1
          (Ptrng_model.Design.required_divisor ~target:1e-6 ~extract ()));
    Testkit.case "bit_markov of_thermal matches manual construction" (fun () ->
        let m =
          Ptrng_model.Bit_markov.of_thermal ~sigma_period:15.89e-12 ~divisor:400
            ~detuning:1e-4 ~f0:103e6
        in
        let manual =
          Ptrng_model.Bit_markov.create
            ~drift:(2.0 *. Float.pi *. 400.0 *. 1e-4)
            ~diffusion:
              (Ptrng_model.Entropy.phase_std_thermal ~sigma_period:15.89e-12 ~k:400
                 ~f0:103e6)
        in
        Testkit.check_rel ~tol:1e-9 "p_stay" manual.p_stay m.p_stay);
    Testkit.case "phase chain marginal is invariant under drift" (fun () ->
        List.iter
          (fun drift ->
            let c = Ptrng_model.Phase_chain.create ~drift ~diffusion:0.6 () in
            Testkit.check_rel ~tol:1e-6 "half" 0.5
              (Ptrng_model.Phase_chain.marginal_bit_probability c))
          [ 0.0; 0.5; 2.0; 5.0 ]);
  ]

let trng_edges =
  [
    Testkit.case "coherent critical fraction saturates at 1" (fun () ->
        let cfg = Ptrng_trng.Coherent.config ~f0:100e6 ~km:17 ~kd:16 () in
        Testkit.check_rel ~tol:0.0 "cap" 1.0
          (Ptrng_trng.Coherent.critical_fraction cfg ~sigma_period:1e-8));
    Testkit.case "xor_decimate with k=1 is the identity" (fun () ->
        let s = Ptrng_trng.Bitstream.of_ints [| 1; 0; 1 |] in
        let out = Ptrng_trng.Post_process.xor_decimate ~k:1 s in
        Alcotest.(check int) "length" 3 (Ptrng_trng.Bitstream.length out);
        Testkit.check_true "same" (Ptrng_trng.Bitstream.get out 0));
    Testkit.case "von neumann of the empty stream is empty" (fun () ->
        Alcotest.(check int) "empty" 0
          (Ptrng_trng.Bitstream.length
             (Ptrng_trng.Post_process.von_neumann (Ptrng_trng.Bitstream.of_bools [||]))));
    Testkit.case "attacked pair with strength 0 is unchanged" (fun () ->
        let pair = Ptrng_osc.Pair.paper_pair () in
        let same = Ptrng_trng.Attack.frequency_injection ~lock_strength:0.0 pair in
        Testkit.check_rel ~tol:1e-12 "b_th"
          pair.Ptrng_osc.Pair.osc1.Ptrng_osc.Oscillator.phase.Ptrng_noise.Psd_model.b_th
          same.Ptrng_osc.Pair.osc1.Ptrng_osc.Oscillator.phase.Ptrng_noise.Psd_model.b_th);
  ]

let measure_edges =
  [
    Testkit.case "s_N at the exact minimum length" (fun () ->
        let s = Ptrng_measure.S_process.realizations ~n:4 (Array.make 8 1.0) in
        Alcotest.(check int) "one realization" 1 (Array.length s));
    Testkit.case "counter with osc1 faster than osc2" (fun () ->
        (* 3 osc1 edges per osc2 period, exactly. *)
        let edges1 = Array.init 31 (fun i -> float_of_int i /. 3.0) in
        let edges2 = Array.init 11 float_of_int in
        let q = Ptrng_measure.Counter.q_counts ~edges1 ~edges2 ~n:2 in
        Array.iter (fun c -> Alcotest.(check int) "6 per window" 6 c) q);
    Testkit.case "fit with floor on floor-only data" (fun () ->
        let pts =
          Array.map
            (fun n ->
              { Ptrng_measure.Variance_curve.n; sigma2 = 0.0; scaled = 0.4;
                neff = 100; stderr = Float.nan })
            [| 4; 8; 16; 32; 64 |]
        in
        let f = Ptrng_measure.Fit.fit ~with_floor:true ~f0:1e8 pts in
        Testkit.check_rel ~tol:1e-9 "floor" 0.4 f.c;
        Testkit.check_abs ~tol:1e-12 "no slope" 0.0 f.a);
    Testkit.case "online feasibility: more precision needs more windows" (fun () ->
        let ns = [| 4096; 16384; 65536 |] in
        let w p =
          Ptrng_measure.Online_test.windows_for_precision
            ~phase:Ptrng_osc.Pair.paper_relative ~floor:0.33 ~ns ~f0:103e6
            ~rel_precision:p
        in
        Testkit.check_true "monotone" (w 0.1 > w 0.25 && w 0.25 > w 0.5);
        (* Quadratic scaling in 1/precision. *)
        Testkit.check_rel ~tol:0.05 "quadratic" 4.0
          (float_of_int (w 0.125) /. float_of_int (w 0.25)));
    Testkit.case "quantization drift grows with N" (fun () ->
        let d n =
          Ptrng_measure.Quantization.drift_per_window
            ~phase:Ptrng_osc.Pair.paper_relative ~f0:103e6 ~detuning:1e-4 ~n
        in
        Testkit.check_true "monotone" (d 16 < d 256 && d 256 < d 4096));
    Testkit.case "thermal extract r_n rejects negative N" (fun () ->
        let e =
          Ptrng_measure.Thermal_extract.of_phase ~f0:103e6 Ptrng_osc.Pair.paper_relative
        in
        Alcotest.check_raises "negative"
          (Invalid_argument "Thermal_extract.r_n: negative N")
          (fun () -> ignore (Ptrng_measure.Thermal_extract.r_n e (-1))));
  ]

let evaluation_edges =
  [
    Testkit.case "AIS31 poker on a perfectly uniform nibble cycle" (fun () ->
        (* All 16 nibbles equally often: X = 0, below the lower bound
           (too perfect is also suspicious). *)
        let bits =
          Array.init 20000 (fun i ->
              let nibble = i / 4 mod 16 and pos = 3 - (i mod 4) in
              nibble lsr pos land 1 = 1)
        in
        let r = Ptrng_ais31.Procedure_a.t2_poker bits in
        Testkit.check_false "too uniform fails" r.Ptrng_ais31.Report.pass);
    Testkit.case "coron g is increasing and concave-ish" (fun () ->
        let g = Ptrng_ais31.Procedure_b.coron_g in
        Testkit.check_true "increasing" (g 10 < g 100 && g 100 < g 1000);
        Testkit.check_true "slowing growth" (g 100 -. g 10 > g 1000 -. g 910));
    Testkit.case "sp800-22 longest-run uses the 128-bit table on long input" (fun () ->
        let rng = Testkit.rng () in
        let bits = Array.init 10000 (fun _ -> Ptrng_prng.Rng.bool rng) in
        let r = Ptrng_nist22.Sp80022.longest_run bits in
        Testkit.check_true "pass" r.Ptrng_nist22.Sp80022.pass);
    Testkit.case "90B markov estimator caps at 1 bit" (fun () ->
        let rng = Testkit.rng () in
        let bits = Array.init 50000 (fun _ -> Ptrng_prng.Rng.bool rng) in
        let e = Ptrng_sp90b.Estimators.markov bits in
        Testkit.check_true "cap" (e.Ptrng_sp90b.Estimators.min_entropy <= 1.0));
    Testkit.case "health rct resets on value change" (fun () ->
        let rct = Ptrng_sp90b.Health.rct_create ~cutoff:3 in
        Testkit.check_false "1" (Ptrng_sp90b.Health.rct_feed rct true);
        Testkit.check_false "2" (Ptrng_sp90b.Health.rct_feed rct true);
        Testkit.check_false "reset" (Ptrng_sp90b.Health.rct_feed rct false);
        Testkit.check_false "1 again" (Ptrng_sp90b.Health.rct_feed rct false);
        Testkit.check_true "3rd in a row" (Ptrng_sp90b.Health.rct_feed rct false));
    Testkit.case "apt evaluates exactly once per window" (fun () ->
        let apt = Ptrng_sp90b.Health.apt_create ~cutoff:60 ~window:64 in
        let alarms = ref 0 in
        for i = 0 to 127 do
          if Ptrng_sp90b.Health.apt_feed apt (i >= 0) then incr alarms
        done;
        (* Two full windows of constant input, both above cutoff. *)
        Alcotest.(check int) "two alarms" 2 !alarms);
  ]

let () =
  Alcotest.run "edge_cases"
    [
      ("signal", signal_edges);
      ("stats", stats_edges);
      ("model", model_edges);
      ("trng", trng_edges);
      ("measure", measure_edges);
      ("evaluation", evaluation_edges);
    ]
