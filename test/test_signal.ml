open Ptrng_signal

let pi = Float.pi

(* O(n^2) reference DFT for validating the fast paths. *)
let naive_dft re im =
  let n = Array.length re in
  let outr = Array.make n 0.0 and outi = Array.make n 0.0 in
  for k = 0 to n - 1 do
    for j = 0 to n - 1 do
      let ang = -2.0 *. pi *. float_of_int (j * k) /. float_of_int n in
      outr.(k) <- outr.(k) +. (re.(j) *. cos ang) -. (im.(j) *. sin ang);
      outi.(k) <- outi.(k) +. (re.(j) *. sin ang) +. (im.(j) *. cos ang)
    done
  done;
  (outr, outi)

let max_abs_diff a b =
  let d = ref 0.0 in
  Array.iteri (fun i v -> d := Float.max !d (Float.abs (v -. b.(i)))) a;
  !d

let random_signal n =
  let rng = Testkit.rng () in
  Array.init n (fun _ -> Ptrng_prng.Rng.float rng -. 0.5)

let fft_tests =
  [
    Testkit.case "pow2 helpers" (fun () ->
        Testkit.check_true "1 is pow2" (Fft.is_pow2 1);
        Testkit.check_true "1024 is pow2" (Fft.is_pow2 1024);
        Testkit.check_false "0 is not" (Fft.is_pow2 0);
        Testkit.check_false "12 is not" (Fft.is_pow2 12);
        Alcotest.(check int) "next_pow2 12" 16 (Fft.next_pow2 12);
        Alcotest.(check int) "next_pow2 16" 16 (Fft.next_pow2 16);
        Alcotest.(check int) "next_pow2 0" 1 (Fft.next_pow2 0));
    Testkit.case "impulse transforms to flat spectrum" (fun () ->
        let n = 64 in
        let re = Array.make n 0.0 and im = Array.make n 0.0 in
        re.(0) <- 1.0;
        Fft.forward_pow2 ~re ~im;
        Array.iter (fun v -> Testkit.check_abs ~tol:1e-12 "re" 1.0 v) re;
        Array.iter (fun v -> Testkit.check_abs ~tol:1e-12 "im" 0.0 v) im);
    Testkit.case "single tone lands in one bin" (fun () ->
        let n = 256 and k0 = 10 in
        let re =
          Array.init n (fun j -> cos (2.0 *. pi *. float_of_int (k0 * j) /. float_of_int n))
        in
        let im = Array.make n 0.0 in
        Fft.forward_pow2 ~re ~im;
        Testkit.check_abs ~tol:1e-9 "peak bin" (float_of_int n /. 2.0) re.(k0);
        Testkit.check_abs ~tol:1e-9 "mirror bin" (float_of_int n /. 2.0) re.(n - k0);
        Testkit.check_abs ~tol:1e-9 "dc" 0.0 re.(0));
    Testkit.case "forward then inverse is identity" (fun () ->
        let n = 1024 in
        let x = random_signal n in
        let re = Array.copy x and im = Array.make n 0.0 in
        Fft.forward_pow2 ~re ~im;
        Fft.inverse_pow2 ~re ~im;
        Testkit.check_abs ~tol:1e-10 "round trip" 0.0 (max_abs_diff re x));
    Testkit.case "matches naive DFT on pow2 length" (fun () ->
        let n = 64 in
        let x = random_signal n and y = random_signal n in
        let fr, fi = Fft.dft ~re:x ~im:y in
        let nr, ni = naive_dft x y in
        Testkit.check_abs ~tol:1e-9 "re" 0.0 (max_abs_diff fr nr);
        Testkit.check_abs ~tol:1e-9 "im" 0.0 (max_abs_diff fi ni));
    Testkit.case "bluestein matches naive DFT on awkward lengths" (fun () ->
        List.iter
          (fun n ->
            let x = random_signal n and y = random_signal n in
            let fr, fi = Fft.dft ~re:x ~im:y in
            let nr, ni = naive_dft x y in
            Testkit.check_abs ~tol:1e-8 "re" 0.0 (max_abs_diff fr nr);
            Testkit.check_abs ~tol:1e-8 "im" 0.0 (max_abs_diff fi ni))
          [ 3; 7; 12; 37; 100; 241 ]);
    Testkit.case "bluestein round trip" (fun () ->
        let n = 137 in
        let x = random_signal n in
        let fr, fi = Fft.dft ~re:x ~im:(Array.make n 0.0) in
        let br, _ = Fft.idft ~re:fr ~im:fi in
        Testkit.check_abs ~tol:1e-9 "round trip" 0.0 (max_abs_diff br x));
    Testkit.case "parseval holds" (fun () ->
        let n = 512 in
        let x = random_signal n in
        let fr, fi = Fft.rfft x in
        let time = Array.fold_left (fun a v -> a +. (v *. v)) 0.0 x in
        let freq = ref 0.0 in
        for k = 0 to n - 1 do
          freq := !freq +. (fr.(k) *. fr.(k)) +. (fi.(k) *. fi.(k))
        done;
        Testkit.check_rel ~tol:1e-10 "parseval" time (!freq /. float_of_int n));
    Testkit.case "linearity" (fun () ->
        let n = 128 in
        let x = random_signal n and y = random_signal n in
        let z = Array.init n (fun i -> (2.0 *. x.(i)) +. (3.0 *. y.(i))) in
        let xr, xi = Fft.rfft x and yr, yi = Fft.rfft y and zr, zi = Fft.rfft z in
        let cr = Array.init n (fun k -> (2.0 *. xr.(k)) +. (3.0 *. yr.(k))) in
        let ci = Array.init n (fun k -> (2.0 *. xi.(k)) +. (3.0 *. yi.(k))) in
        Testkit.check_abs ~tol:1e-9 "re" 0.0 (max_abs_diff zr cr);
        Testkit.check_abs ~tol:1e-9 "im" 0.0 (max_abs_diff zi ci));
    Testkit.case "large transform keeps precision" (fun () ->
        let n = 1 lsl 18 in
        let x = random_signal n in
        let re = Array.copy x and im = Array.make n 0.0 in
        Fft.forward_pow2 ~re ~im;
        Fft.inverse_pow2 ~re ~im;
        Testkit.check_abs ~tol:1e-9 "round trip" 0.0 (max_abs_diff re x));
    Testkit.case "convolve_real matches naive convolution" (fun () ->
        let a = [| 1.0; 2.0; 3.0 |] and b = [| 0.5; -1.0; 0.25; 2.0 |] in
        let naive = Array.make 6 0.0 in
        Array.iteri
          (fun i av ->
            Array.iteri (fun j bv -> naive.(i + j) <- naive.(i + j) +. (av *. bv)) b)
          a;
        let fast = Fft.convolve_real a b in
        Alcotest.(check int) "length" 6 (Array.length fast);
        Testkit.check_abs ~tol:1e-10 "values" 0.0 (max_abs_diff fast naive));
    Testkit.case "rejects mismatched arrays" (fun () ->
        Alcotest.check_raises "mismatch" (Invalid_argument "Fft: re/im length mismatch")
          (fun () -> Fft.forward_pow2 ~re:(Array.make 4 0.0) ~im:(Array.make 8 0.0)));
    Testkit.case "rejects non-pow2 in-place" (fun () ->
        Alcotest.check_raises "12 points"
          (Invalid_argument "Fft: length not a power of two")
          (fun () -> Fft.forward_pow2 ~re:(Array.make 12 0.0) ~im:(Array.make 12 0.0)));
  ]

let window_tests =
  [
    Testkit.case "rectangular has unit gain" (fun () ->
        let w = Window.make Window.Rectangular 64 in
        Testkit.check_rel ~tol:1e-12 "gain" 1.0 (Window.coherent_gain w);
        Testkit.check_rel ~tol:1e-12 "sum_sq" 64.0 (Window.sum_sq w);
        Testkit.check_rel ~tol:1e-12 "enbw" 1.0 (Window.enbw_bins w));
    Testkit.case "hann coherent gain is 0.5" (fun () ->
        let w = Window.make Window.Hann 1024 in
        Testkit.check_rel ~tol:1e-10 "gain" 0.5 (Window.coherent_gain w);
        Testkit.check_rel ~tol:1e-3 "enbw" 1.5 (Window.enbw_bins w));
    Testkit.case "hamming coherent gain is 0.54" (fun () ->
        let w = Window.make Window.Hamming 1024 in
        Testkit.check_rel ~tol:1e-10 "gain" 0.54 (Window.coherent_gain w));
    Testkit.case "all windows stay bounded" (fun () ->
        List.iter
          (fun kind ->
            let w = Window.make kind 257 in
            Array.iter
              (fun v -> Testkit.check_in_range (Window.name kind) ~lo:(-0.1) ~hi:1.1 v)
              w)
          [ Window.Rectangular; Hann; Hamming; Blackman; Blackman_harris; Flattop ]);
    Testkit.case "rejects non-positive size" (fun () ->
        Alcotest.check_raises "n=0" (Invalid_argument "Window.make: n <= 0") (fun () ->
            ignore (Window.make Window.Hann 0)));
  ]

let psd_tests =
  [
    Testkit.case "white noise level is 2 sigma^2 / fs" (fun () ->
        let g = Ptrng_prng.Gaussian.create (Testkit.rng ()) in
        let sigma = 0.7 and fs = 1000.0 in
        let x = Array.init (1 lsl 16) (fun _ -> sigma *. Ptrng_prng.Gaussian.draw g) in
        let s = Psd.welch ~seg_len:1024 ~fs x in
        let level = Psd.band_mean s ~f_lo:(fs /. 20.0) ~f_hi:(fs /. 2.2) in
        Testkit.check_rel ~tol:0.05 "level" (2.0 *. sigma *. sigma /. fs) level);
    Testkit.case "total power approximates variance" (fun () ->
        let g = Ptrng_prng.Gaussian.create (Testkit.rng ()) in
        let x = Array.init (1 lsl 15) (fun _ -> Ptrng_prng.Gaussian.draw g) in
        let s = Psd.welch ~seg_len:2048 ~fs:1.0 x in
        Testkit.check_rel ~tol:0.05 "power" 1.0 (Psd.total_power s));
    Testkit.case "sine power concentrates at its frequency" (fun () ->
        let fs = 1000.0 and f_sig = 125.0 and amp = 2.0 in
        let n = 8192 in
        let x =
          Array.init n (fun i -> amp *. sin (2.0 *. pi *. f_sig *. float_of_int i /. fs))
        in
        let s = Psd.periodogram ~fs x in
        let acc = ref 0.0 in
        Array.iteri
          (fun k f ->
            if Float.abs (f -. f_sig) < 5.0 then
              acc := !acc +. (s.psd.(k) *. (fs /. float_of_int n)))
          s.freqs;
        Testkit.check_rel ~tol:0.05 "tone power" (amp *. amp /. 2.0) !acc);
    Testkit.case "welch counts segments with overlap" (fun () ->
        let x = Array.make 1000 1.0 in
        let s = Psd.welch ~overlap:0.5 ~seg_len:256 ~fs:1.0 x in
        Alcotest.(check int) "segments" 6 s.segments);
    Testkit.case "periodogram rejects empty input" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Psd.periodogram: empty input")
          (fun () -> ignore (Psd.periodogram ~fs:1.0 [||])));
    Testkit.case "welch rejects oversized segment" (fun () ->
        Alcotest.check_raises "seg" (Invalid_argument "Psd.welch: bad seg_len") (fun () ->
            ignore (Psd.welch ~seg_len:100 ~fs:1.0 (Array.make 10 0.0))));
    Testkit.case "band_mean rejects empty band" (fun () ->
        let s = Psd.periodogram ~fs:1.0 (Array.make 64 0.0) in
        Alcotest.check_raises "band" (Invalid_argument "Psd.band_mean: empty band")
          (fun () -> ignore (Psd.band_mean s ~f_lo:10.0 ~f_hi:20.0)));
  ]

let autocorr_tests =
  [
    Testkit.case "white noise ACF is a delta" (fun () ->
        let g = Ptrng_prng.Gaussian.create (Testkit.rng ()) in
        let x = Array.init 50000 (fun _ -> Ptrng_prng.Gaussian.draw g) in
        let r = Autocorr.acf ~max_lag:20 x in
        Testkit.check_rel ~tol:1e-12 "lag 0" 1.0 r.(0);
        let bound = Autocorr.confidence_bound ~n:50000 *. 2.0 in
        for k = 1 to 20 do
          Testkit.check_abs ~tol:bound "white lag" 0.0 r.(k)
        done);
    Testkit.case "AR(1) ACF decays geometrically" (fun () ->
        let g = Ptrng_prng.Gaussian.create (Testkit.rng ()) in
        let phi = 0.8 in
        let n = 200000 in
        let x = Array.make n 0.0 in
        for i = 1 to n - 1 do
          x.(i) <- (phi *. x.(i - 1)) +. Ptrng_prng.Gaussian.draw g
        done;
        let r = Autocorr.acf ~max_lag:5 x in
        for k = 1 to 5 do
          Testkit.check_abs ~tol:0.03 (Printf.sprintf "lag %d" k)
            (phi ** float_of_int k) r.(k)
        done);
    Testkit.case "matches naive autocovariance" (fun () ->
        let x = [| 1.0; 3.0; -2.0; 0.5; 4.0; -1.0; 2.0; 0.0 |] in
        let n = Array.length x in
        let mean = Array.fold_left ( +. ) 0.0 x /. float_of_int n in
        let naive k =
          let acc = ref 0.0 in
          for i = 0 to n - 1 - k do
            acc := !acc +. ((x.(i) -. mean) *. (x.(i + k) -. mean))
          done;
          !acc /. float_of_int n
        in
        let c = Autocorr.autocovariance ~max_lag:4 x in
        for k = 0 to 4 do
          Testkit.check_abs ~tol:1e-10 (Printf.sprintf "lag %d" k) (naive k) c.(k)
        done);
    Testkit.case "acf rejects constant series" (fun () ->
        Alcotest.check_raises "constant"
          (Invalid_argument "Autocorr.acf: zero-variance series")
          (fun () -> ignore (Autocorr.acf (Array.make 16 2.0))));
  ]

let filter_tests =
  [
    Testkit.case "identity FIR" (fun () ->
        let x = random_signal 100 in
        let y = Filter.fir_direct ~h:[| 1.0 |] x in
        Testkit.check_abs ~tol:0.0 "identity" 0.0 (max_abs_diff x y));
    Testkit.case "moving-average FIR reaches steady state" (fun () ->
        let x = Array.make 64 3.0 in
        let h = Array.make 4 0.25 in
        let y = Filter.fir_direct ~h x in
        for i = 3 to 63 do
          Testkit.check_abs ~tol:1e-12 "steady state" 3.0 y.(i)
        done);
    Testkit.case "iir implements the recursion" (fun () ->
        let x = Array.make 10 0.0 in
        x.(0) <- 1.0;
        let y = Filter.iir ~b:[| 1.0 |] ~a:[| 1.0; -0.5 |] x in
        Array.iteri
          (fun i v ->
            Testkit.check_abs ~tol:1e-12 "impulse response" (0.5 ** float_of_int i) v)
          y);
    Testkit.case "iir rejects zero leading coefficient" (fun () ->
        Alcotest.check_raises "a0 = 0"
          (Invalid_argument "Filter.iir: a.(0) must be non-zero")
          (fun () -> ignore (Filter.iir ~b:[| 1.0 |] ~a:[| 0.0 |] [| 1.0 |])));
    Testkit.case "biquad lowpass attenuates high frequencies" (fun () ->
        let fs = 1000.0 in
        let bq = Filter.biquad_lowpass ~fc:50.0 ~fs ~q:0.707 in
        let n = 4096 in
        let tone f = Array.init n (fun i -> sin (2.0 *. pi *. f *. float_of_int i /. fs)) in
        let rms x =
          sqrt
            (Array.fold_left (fun a v -> a +. (v *. v)) 0.0 x
            /. float_of_int (Array.length x))
        in
        let low = rms (Filter.biquad_apply bq (tone 10.0)) in
        let high = rms (Filter.biquad_apply bq (tone 400.0)) in
        Testkit.check_true "passband kept" (low > 0.6);
        Testkit.check_true "stopband rejected" (high < 0.05));
    Testkit.case "remove_mean zeroes the mean" (fun () ->
        let x = random_signal 1000 in
        let y = Filter.remove_mean x in
        Testkit.check_abs ~tol:1e-12 "mean" 0.0 (Ptrng_stats.Descriptive.mean y));
    Testkit.case "detrend_linear removes an exact line" (fun () ->
        let x = Array.init 100 (fun i -> 3.0 +. (0.25 *. float_of_int i)) in
        let y = Filter.detrend_linear x in
        Array.iter (fun v -> Testkit.check_abs ~tol:1e-9 "residual" 0.0 v) y);
  ]

let () =
  Alcotest.run "ptrng_signal"
    [
      ("fft", fft_tests);
      ("window", window_tests);
      ("psd", psd_tests);
      ("autocorr", autocorr_tests);
      ("filter", filter_tests);
    ]
