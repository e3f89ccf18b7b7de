(* End-to-end tests of the full reproduction pipeline: simulated
   oscillator pair -> measurement -> fit -> extraction, checked against
   the paper's numbers and the planted ground truth. *)

let f0 = Ptrng_osc.Pair.paper_f0
let paper_phase = Ptrng_osc.Pair.paper_relative

let analysis =
  lazy
    (Ptrng_model.Multilevel.characterize ~n_periods:(1 lsl 20)
       ~rng:(Testkit.rng ~seed:2014L ())
       (Ptrng_osc.Pair.paper_pair ()))

let pipeline_tests =
  [
    Testkit.case "recovers the paper's b_th within 10%" (fun () ->
        let a = Lazy.force analysis in
        Testkit.check_rel ~tol:0.1 "b_th" 276.04
          a.extract.phase.Ptrng_noise.Psd_model.b_th);
    Testkit.case "recovers the paper's b_fl within 30%" (fun () ->
        (* The flicker term is resolved only at large N where the
           estimator has few independent samples: +-15% (1 sigma). *)
        let a = Lazy.force analysis in
        Testkit.check_rel ~tol:0.3 "b_fl"
          paper_phase.Ptrng_noise.Psd_model.b_fl
          a.extract.phase.Ptrng_noise.Psd_model.b_fl);
    Testkit.case "thermal jitter lands on 15.89 ps within 5%" (fun () ->
        let a = Lazy.force analysis in
        Testkit.check_rel ~tol:0.05 "sigma" 15.89e-12 a.extract.sigma_thermal);
    Testkit.case "relative jitter ratio is ~1.6 permil" (fun () ->
        let a = Lazy.force analysis in
        Testkit.check_rel ~tol:0.05 "ratio" 1.64e-3 a.extract.sigma_relative);
    Testkit.case "k-ratio reproduces the paper's 5354 within 40%" (fun () ->
        let a = Lazy.force analysis in
        Testkit.check_rel ~tol:0.4 "k" 5354.0 a.extract.k_ratio);
    Testkit.case "growth exponent sits between 1 and 2" (fun () ->
        let a = Lazy.force analysis in
        let slope, _ = a.growth_exponent in
        Testkit.check_in_range "dependence visible" ~lo:1.02 ~hi:1.8 slope);
    Testkit.case "measured curve tracks the closed form" (fun () ->
        let a = Lazy.force analysis in
        Array.iter
          (fun (p : Ptrng_measure.Variance_curve.point) ->
            let predicted = Ptrng_model.Spectral.scaled paper_phase ~f0 ~n:p.n in
            (* 4-sigma statistical window around the planted truth. *)
            let budget = Float.max (4.0 *. p.stderr *. f0 *. f0) (0.15 *. predicted) in
            Testkit.check_abs ~tol:budget
              (Printf.sprintf "N=%d" p.n)
              predicted p.scaled)
          a.ideal_curve);
    Testkit.case "counter curve floors at small N, converges at large N" (fun () ->
        let a = Lazy.force analysis in
        let find curve n =
          Array.to_list curve
          |> List.find_opt (fun (p : Ptrng_measure.Variance_curve.point) -> p.n = n)
        in
        (match (find a.counter_curve 16, find a.ideal_curve 16) with
        | Some c, Some i ->
          Testkit.check_true "quantization dominates small N"
            (c.Ptrng_measure.Variance_curve.scaled
            > 10.0 *. i.Ptrng_measure.Variance_curve.scaled)
        | _ -> Alcotest.fail "missing N=16 points");
        let last curve =
          Array.fold_left
            (fun acc (p : Ptrng_measure.Variance_curve.point) ->
              match acc with
              | Some (b : Ptrng_measure.Variance_curve.point) when b.n >= p.n -> acc
              | _ -> Some p)
            None curve
        in
        match (last a.counter_curve, last a.ideal_curve) with
        | Some c, Some i ->
          Testkit.check_true "counter adds variance"
            (c.Ptrng_measure.Variance_curve.scaled
            > 0.8 *. i.Ptrng_measure.Variance_curve.scaled);
          Testkit.check_true "signal emerges above the floor at large N"
            (c.Ptrng_measure.Variance_curve.scaled
            < 4.0 *. i.Ptrng_measure.Variance_curve.scaled)
        | _ -> Alcotest.fail "empty curves");
    Testkit.case "independence threshold is near the paper's 281" (fun () ->
        let a = Lazy.force analysis in
        let n95 =
          Ptrng_measure.Thermal_extract.independence_threshold a.extract ~confidence:0.95
        in
        Testkit.check_in_range "threshold" ~lo:200.0 ~hi:400.0 (float_of_int n95));
  ]

let counter_extraction_tests =
  [
    Testkit.case "counter-only extraction: flicker recoverable, thermal not" (fun () ->
        (* The realistic Fig. 6 hardware at a 2^21-period budget: the
           saturation-gated floor fit pins down the flicker (N^2)
           coefficient, while the thermal term drowns below the
           quantization floor — quantifying the averaging-budget
           finding of EXPERIMENTS.md Ablation C through the full
           pipeline. *)
        let a =
          Ptrng_model.Multilevel.characterize ~n_periods:(1 lsl 21)
            ~rng:(Testkit.rng ~seed:4242L ())
            (Ptrng_osc.Pair.paper_pair ())
        in
        match a.counter_fit with
        | None -> Alcotest.fail "expected a counter fit at this trace length"
        | Some cf ->
          let phase = Ptrng_measure.Fit.phase_of cf in
          let bth_se, bfl_se = Ptrng_measure.Fit.phase_se_of cf in
          Testkit.check_abs
            ~tol:(Float.max (4.0 *. bfl_se)
                    (1.5 *. paper_phase.Ptrng_noise.Psd_model.b_fl))
            "b_fl from counters" paper_phase.Ptrng_noise.Psd_model.b_fl
            phase.Ptrng_noise.Psd_model.b_fl;
          Testkit.check_true "thermal term unresolved (se above the signal)"
            (bth_se > 276.04);
          Testkit.check_in_range "floor near saturation" ~lo:0.3 ~hi:1.2 cf.c);
    Testkit.case "cubic fit recovers a planted aging term" (fun () ->
        let hm2 = 1e-13 in
        let ns = Ptrng_measure.Variance_curve.log2_grid ~n_min:4 ~n_max:16384 in
        let pts =
          Array.map
            (fun n ->
              let scaled =
                Ptrng_model.Spectral.scaled paper_phase ~f0 ~n
                +. (f0 *. f0
                   *. Ptrng_model.Spectral.sigma2_n_random_walk ~hm2 ~f0 ~n)
              in
              { Ptrng_measure.Variance_curve.n; sigma2 = scaled /. (f0 *. f0);
                scaled; neff = 1000; stderr = Float.nan })
            ns
        in
        let cf = Ptrng_measure.Fit.fit ~with_cubic:true ~f0 pts in
        Testkit.check_rel ~tol:1e-6 "h-2" hm2 (Ptrng_measure.Fit.rw_hm2_of cf);
        Testkit.check_rel ~tol:1e-5 "thermal survives" 5.36e-6 cf.a);
  ]

let model_comparison_tests =
  [
    Testkit.case "naive model overestimates entropy at long accumulation" (fun () ->
        let a = Lazy.force analysis in
        let rows =
          Ptrng_model.Compare.overestimation_table_measured ~extract:a.extract
            ~sampling_periods:300 a.ideal_curve
        in
        let last = rows.(Array.length rows - 1) in
        Testkit.check_true "overestimate present" (last.Ptrng_model.Compare.overestimate > 0.005);
        (* And the violation grows monotonically along the curve tail. *)
        let n = Array.length rows in
        Testkit.check_true "grows"
          (rows.(n - 1).Ptrng_model.Compare.overestimate
          > rows.(n / 2).Ptrng_model.Compare.overestimate));
    Testkit.case "baseline model (flicker off) shows no dependence" (fun () ->
        let pair =
          Ptrng_osc.Pair.of_relative ~f0
            ~relative:{ paper_phase with Ptrng_noise.Psd_model.b_fl = 0.0 } ()
        in
        let a =
          Ptrng_model.Multilevel.characterize ~n_periods:(1 lsl 18)
            ~rng:(Testkit.rng ~seed:7L ()) pair
        in
        let slope, se = a.growth_exponent in
        Testkit.check_abs ~tol:(Float.max 0.05 (4.0 *. se)) "slope 1" 1.0 slope);
    (* Metamorphic: with the flicker term off the jitter realizations are
       independent, so the fitted quadratic coefficient vanishes and every
       point obeys Bienaymé.  s_N is the difference of two adjacent sums
       of N relative jitters of variance sigma_1^2 + sigma_2^2, so
       sigma_N^2 = 2 N (sigma_1^2 + sigma_2^2) = 2 N b_th / f0^3 for the
       pair's relative b_th.  The per-ring variances come from the PSD
       model, not from the fit. *)
    Testkit.case "flicker off: b = 0 and sigma_N^2 = 2 N b_th / f0^3" (fun () ->
        let pair =
          Ptrng_osc.Pair.of_relative ~f0
            ~relative:{ paper_phase with Ptrng_noise.Psd_model.b_fl = 0.0 } ()
        in
        let a =
          Ptrng_model.Multilevel.characterize ~n_periods:(1 lsl 18)
            ~rng:(Testkit.rng ~seed:7L ()) pair
        in
        Testkit.check_true
          (Printf.sprintf "|b| = %g <= 3 se = %g" (Float.abs a.fit.b)
             (3.0 *. a.fit.b_se))
          (Float.abs a.fit.b <= 3.0 *. a.fit.b_se);
        let ring_var (o : Ptrng_osc.Oscillator.config) =
          Ptrng_noise.Psd_model.thermal_period_jitter_var ~f0:o.f0 o.phase
        in
        let per_period = ring_var pair.osc1 +. ring_var pair.osc2 in
        Array.iter
          (fun (p : Ptrng_measure.Variance_curve.point) ->
            let expected = 2.0 *. float_of_int p.n *. per_period in
            Testkit.check_true
              (Printf.sprintf "N = %d: sigma2 %g vs %g within 3 se %g" p.n
                 p.sigma2 expected p.stderr)
              (Float.abs (p.sigma2 -. expected) <= 3.0 *. p.stderr))
          a.ideal_curve);
  ]

let trng_chain_tests =
  (* Simulating one AIS31 block at the paper's divisor-3000 accumulation
     costs 60M event-level periods; the unit test uses a 100x-thermal
     pair at divisor 600 (similar phase diffusion per sample, 5x cheaper).
     The paper-calibrated generator runs in examples/ and bench/. *)
  let strong_pair () =
    Ptrng_osc.Pair.of_relative ~f0
      ~relative:{ Ptrng_noise.Psd_model.b_th = paper_phase.Ptrng_noise.Psd_model.b_th *. 100.0;
                  b_fl = paper_phase.Ptrng_noise.Psd_model.b_fl }
      ()
  in
  [
    Testkit.case "eRO-TRNG with sufficient accumulation passes AIS31 T1-T5" (fun () ->
        let cfg = Ptrng_trng.Ero_trng.config ~divisor:600 (strong_pair ()) in
        let bits =
          Ptrng_trng.Ero_trng.generate (Testkit.rng ~seed:9L ()) cfg
            ~bits:Ptrng_ais31.Procedure_a.block_bits
        in
        let block =
          Array.init Ptrng_ais31.Procedure_a.block_bits (Ptrng_trng.Bitstream.get bits)
        in
        let results = Ptrng_ais31.Procedure_a.run_block block in
        let summary = Ptrng_ais31.Report.summarize results in
        Testkit.check_true "verdict" summary.Ptrng_ais31.Report.verdict);
    Testkit.case "locked (attacked) TRNG fails procedure A" (fun () ->
        let attacked =
          Ptrng_trng.Attack.frequency_injection ~lock_strength:0.9999 (strong_pair ())
        in
        let cfg = Ptrng_trng.Ero_trng.config ~divisor:600 attacked in
        let bits =
          Ptrng_trng.Ero_trng.generate (Testkit.rng ~seed:10L ()) cfg
            ~bits:Ptrng_ais31.Procedure_a.block_bits
        in
        let block =
          Array.init Ptrng_ais31.Procedure_a.block_bits (Ptrng_trng.Bitstream.get bits)
        in
        let summary =
          Ptrng_ais31.Report.summarize (Ptrng_ais31.Procedure_a.run_block block)
        in
        Testkit.check_false "verdict" summary.Ptrng_ais31.Report.verdict);
  ]

let () =
  Alcotest.run "integration"
    [
      ("pipeline", pipeline_tests);
      ("counter_extraction", counter_extraction_tests);
      ("model_comparison", model_comparison_tests);
      ("trng_chain", trng_chain_tests);
    ]
