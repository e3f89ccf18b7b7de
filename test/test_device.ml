open Ptrng_device

let nominal_mosfet () =
  Mosfet.create ~gm:2e-3 ~i_d:1e-4 ~w:130e-9 ~l:65e-9 ~alpha:7.8e-10 ()

let mosfet_tests =
  [
    Testkit.case "thermal PSD is (8/3) k T gm" (fun () ->
        let m = nominal_mosfet () in
        Testkit.check_rel ~tol:1e-12 "psd"
          (8.0 /. 3.0 *. Constants.boltzmann *. 300.0 *. 2e-3)
          (Mosfet.thermal_psd m));
    Testkit.case "thermal PSD scales with temperature" (fun () ->
        let cold = Mosfet.create ~gm:2e-3 ~i_d:1e-4 ~w:1e-6 ~l:1e-7 ~alpha:1e-10 ~temp:150.0 () in
        let hot = Mosfet.create ~gm:2e-3 ~i_d:1e-4 ~w:1e-6 ~l:1e-7 ~alpha:1e-10 ~temp:300.0 () in
        Testkit.check_rel ~tol:1e-12 "2x" 2.0
          (Mosfet.thermal_psd hot /. Mosfet.thermal_psd cold));
    Testkit.case "flicker PSD follows alpha k T Id^2 / (W L^2 f)" (fun () ->
        let m = nominal_mosfet () in
        let expected f =
          7.8e-10 *. Constants.boltzmann *. 300.0 *. 1e-8 /. (130e-9 *. 65e-9 *. 65e-9 *. f)
        in
        List.iter
          (fun f -> Testkit.check_rel ~tol:1e-12 "psd" (expected f) (Mosfet.flicker_psd m f))
          [ 1.0; 1e3; 1e6 ]);
    Testkit.case "flicker grows as 1/L^2 at fixed W" (fun () ->
        let base = Mosfet.create ~gm:2e-3 ~i_d:1e-4 ~w:1e-6 ~l:100e-9 ~alpha:1e-10 () in
        let short = Mosfet.create ~gm:2e-3 ~i_d:1e-4 ~w:1e-6 ~l:50e-9 ~alpha:1e-10 () in
        Testkit.check_rel ~tol:1e-12 "4x" 4.0
          (Mosfet.flicker_coefficient short /. Mosfet.flicker_coefficient base));
    Testkit.case "corner frequency crosses over" (fun () ->
        let m = nominal_mosfet () in
        let fc = Mosfet.corner_frequency m in
        Testkit.check_rel ~tol:1e-9 "equal at corner" (Mosfet.thermal_psd m)
          (Mosfet.flicker_psd m fc));
    Testkit.case "rejects non-positive parameters" (fun () ->
        Alcotest.check_raises "gm" (Invalid_argument "Mosfet.create: non-positive gm")
          (fun () ->
            ignore (Mosfet.create ~gm:0.0 ~i_d:1e-4 ~w:1e-6 ~l:1e-7 ~alpha:1e-10 ())));
  ]

let isf_tests =
  [
    Testkit.case "symmetric ring ISF has zero DC" (fun () ->
        let isf = Isf.ring_oscillator ~stages:7 ~asymmetry:0.0 () in
        Testkit.check_abs ~tol:1e-6 "gamma_dc" 0.0 (Isf.gamma_dc isf));
    Testkit.case "gamma_rms matches the Hajimiri closed form" (fun () ->
        (* Triangular lobes: Gamma_rms^2 = pi^2 (1 + (1-a)^2) / (3 N^3),
           i.e. 2 pi^2/(3 N^3) for the symmetric ring. *)
        List.iter
          (fun stages ->
            let isf = Isf.ring_oscillator ~stages ~asymmetry:0.0 () in
            let n = float_of_int stages in
            let expected = sqrt (2.0 *. Float.pi *. Float.pi /. (3.0 *. n ** 3.0)) in
            Testkit.check_rel ~tol:0.01
              (Printf.sprintf "stages=%d" stages)
              expected (Isf.gamma_rms isf))
          [ 3; 5; 7; 11 ]);
    Testkit.case "gamma_dc grows linearly with asymmetry" (fun () ->
        (* Analytic mean: a * pi / (2 N^2). *)
        let stages = 7 in
        List.iter
          (fun a ->
            let isf = Isf.ring_oscillator ~stages ~asymmetry:a () in
            let expected = a *. Float.pi /. (2.0 *. float_of_int (stages * stages)) in
            Testkit.check_rel ~tol:0.02 (Printf.sprintf "a=%.2f" a) expected
              (Isf.gamma_dc isf))
          [ 0.1; 0.2; 0.5 ]);
    Testkit.case "fourier c0 is twice the DC value" (fun () ->
        let isf = Isf.ring_oscillator ~stages:5 ~asymmetry:0.3 () in
        Testkit.check_rel ~tol:1e-9 "c0" (2.0 *. Isf.gamma_dc isf)
          (Isf.fourier_coefficient isf 0));
    Testkit.case "fourier coefficient of a pure cosine" (fun () ->
        let isf = Isf.of_function (fun x -> 0.7 *. cos (3.0 *. x)) in
        Testkit.check_rel ~tol:1e-6 "c3" 0.7 (Isf.fourier_coefficient isf 3);
        Testkit.check_abs ~tol:1e-9 "c2" 0.0 (Isf.fourier_coefficient isf 2));
    Testkit.case "eval interpolates periodically" (fun () ->
        let isf = Isf.of_function (fun x -> sin x) in
        Testkit.check_abs ~tol:1e-3 "sin pi/2" 1.0 (Isf.eval isf (Float.pi /. 2.0));
        Testkit.check_abs ~tol:1e-3 "periodic" 1.0
          (Isf.eval isf ((Float.pi /. 2.0) +. (4.0 *. Float.pi)));
        Testkit.check_abs ~tol:1e-3 "negative arg" (-1.0)
          (Isf.eval isf (-.Float.pi /. 2.0)));
    Testkit.case "rejects degenerate configs" (fun () ->
        Alcotest.check_raises "stages" (Invalid_argument "Isf.ring_oscillator: stages < 3")
          (fun () -> ignore (Isf.ring_oscillator ~stages:2 ())));
  ]

let phase_noise_tests =
  [
    Testkit.case "b_th scales with stage count and current noise" (fun () ->
        let isf = Isf.ring_oscillator ~stages:7 () in
        let base =
          Phase_noise.of_ring ~isf ~qmax:1e-14 ~stages:7 ~thermal_current_psd:1e-23
            ~flicker_current_coeff:1e-17 ()
        in
        let double_noise =
          Phase_noise.of_ring ~isf ~qmax:1e-14 ~stages:7 ~thermal_current_psd:2e-23
            ~flicker_current_coeff:1e-17 ()
        in
        Testkit.check_rel ~tol:1e-12 "2x thermal" 2.0
          (double_noise.Ptrng_noise.Psd_model.b_th /. base.Ptrng_noise.Psd_model.b_th);
        Testkit.check_rel ~tol:1e-12 "flicker unchanged" 1.0
          (double_noise.b_fl /. base.b_fl));
    Testkit.case "b coefficients fall as qmax^2" (fun () ->
        let isf = Isf.ring_oscillator ~stages:7 () in
        let small =
          Phase_noise.of_ring ~isf ~qmax:1e-14 ~stages:7 ~thermal_current_psd:1e-23
            ~flicker_current_coeff:1e-17 ()
        in
        let big =
          Phase_noise.of_ring ~isf ~qmax:2e-14 ~stages:7 ~thermal_current_psd:1e-23
            ~flicker_current_coeff:1e-17 ()
        in
        Testkit.check_rel ~tol:1e-12 "4x" 4.0 (small.Ptrng_noise.Psd_model.b_th /. big.Ptrng_noise.Psd_model.b_th));
    Testkit.case "symmetric ISF kills the flicker up-conversion" (fun () ->
        let isf = Isf.ring_oscillator ~stages:7 ~asymmetry:0.0 () in
        let p =
          Phase_noise.of_ring ~isf ~qmax:1e-14 ~stages:7 ~thermal_current_psd:1e-23
            ~flicker_current_coeff:1e-17 ()
        in
        Testkit.check_true "b_fl ~ 0"
          (p.Ptrng_noise.Psd_model.b_fl < 1e-9 *. p.Ptrng_noise.Psd_model.b_th));
    Testkit.case "ring frequency formula" (fun () ->
        Testkit.check_rel ~tol:1e-12 "f0" (1.0 /. (2.0 *. 7.0 *. 1e-9))
          (Phase_noise.ring_frequency ~stages:7 ~stage_delay:1e-9));
    Testkit.case "inverter helpers" (fun () ->
        let m = nominal_mosfet () in
        let inv = Inverter.create ~nmos:m ~pmos:m ~cl:20e-15 ~vdd:1.2 () in
        Testkit.check_rel ~tol:1e-12 "qmax" 24e-15 (Inverter.qmax inv);
        Testkit.check_rel ~tol:1e-12 "delay" (20e-15 *. 1.2 /. 2e-4)
          (Inverter.stage_delay inv);
        Testkit.check_rel ~tol:1e-12 "thermal mean" (Mosfet.thermal_psd m)
          (Inverter.thermal_current_psd inv));
  ]

let technology_tests =
  [
    Testkit.case "presets include the FPGA node" (fun () ->
        let node = Technology.find "cyclone3-fpga" in
        Testkit.check_rel ~tol:1e-12 "65nm" 65e-9 node.Technology.l);
    Testkit.case "fpga ring lands near 103 MHz" (fun () ->
        let ring = Technology.ring (Technology.find "cyclone3-fpga") in
        Testkit.check_rel ~tol:0.05 "f0" 103e6 ring.Technology.f0);
    Testkit.case "fit_to_measurement reproduces the target exactly" (fun () ->
        let target = { Ptrng_noise.Psd_model.b_th = 138.0; b_fl = 9.576e5 } in
        let node = Technology.fit_to_measurement ~target (Technology.find "cyclone3-fpga") in
        let ring = Technology.ring node in
        Testkit.check_rel ~tol:1e-9 "b_th" 138.0 ring.Technology.phase.Ptrng_noise.Psd_model.b_th;
        Testkit.check_rel ~tol:1e-9 "b_fl" 9.576e5 ring.Technology.phase.Ptrng_noise.Psd_model.b_fl);
    Testkit.case "independence threshold matches the paper (281 at 95%)" (fun () ->
        let phase = { Ptrng_noise.Psd_model.b_th = 276.04;
                      b_fl = 276.04 *. 103e6 /. (4.0 *. log 2.0 *. 5354.0) } in
        Alcotest.(check int) "threshold" 281
          (Technology.independence_threshold_n phase ~f0:103e6 ~confidence:0.95));
    Testkit.case "flicker fraction grows as nodes shrink" (fun () ->
        let asic = List.filter (fun n -> n.Technology.routing_delay = 0.0) Technology.presets in
        let ratios =
          List.map
            (fun node ->
              let r = Technology.ring node in
              r.Technology.phase.Ptrng_noise.Psd_model.b_fl
              /. r.Technology.phase.Ptrng_noise.Psd_model.b_th)
            asic
        in
        let rec monotone = function
          | a :: (b :: _ as rest) -> a < b && monotone rest
          | _ -> true
        in
        Testkit.check_true "monotone flicker/thermal ratio" (monotone ratios));
    Testkit.case "independence threshold shrinks with the node" (fun () ->
        let threshold name =
          let r = Technology.ring (Technology.find name) in
          Technology.independence_threshold_n r.Technology.phase ~f0:r.Technology.f0
            ~confidence:0.95
        in
        Testkit.check_true "350nm allows longer accumulation"
          (threshold "asic-350nm" > threshold "asic-28nm"));
    Testkit.case "unknown preset raises Not_found" (fun () ->
        Alcotest.check_raises "missing" Not_found (fun () ->
            ignore (Technology.find "asic-3nm")));
    Testkit.case "temperature scales the noise but not the threshold" (fun () ->
        let node = Technology.find "cyclone3-fpga" in
        let cold = Technology.ring ~temp:250.0 node in
        let hot = Technology.ring ~temp:350.0 node in
        (* Both b coefficients are proportional to kT. *)
        Testkit.check_rel ~tol:1e-9 "b_th ratio" (350.0 /. 250.0)
          (hot.Technology.phase.Ptrng_noise.Psd_model.b_th
          /. cold.Technology.phase.Ptrng_noise.Psd_model.b_th);
        Testkit.check_rel ~tol:1e-9 "b_fl ratio" (350.0 /. 250.0)
          (hot.Technology.phase.Ptrng_noise.Psd_model.b_fl
          /. cold.Technology.phase.Ptrng_noise.Psd_model.b_fl);
        (* ... so r_N, hence the independence threshold, is invariant. *)
        let threshold r =
          Technology.independence_threshold_n r.Technology.phase
            ~f0:r.Technology.f0 ~confidence:0.95
        in
        Alcotest.(check int) "threshold invariant" (threshold cold) (threshold hot));
  ]

let () =
  Alcotest.run "ptrng_device"
    [
      ("mosfet", mosfet_tests);
      ("isf", isf_tests);
      ("phase_noise", phase_noise_tests);
      ("technology", technology_tests);
    ]
