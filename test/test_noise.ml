open Ptrng_noise

let voss_samples v n = Array.init n (fun _ -> Voss.next v)

let psd_model_tests =
  [
    Testkit.case "phase PSD evaluates the two-term law" (fun () ->
        let p = { Psd_model.b_th = 276.04; b_fl = 1.9e6 } in
        Testkit.check_rel ~tol:1e-12 "at 1 kHz"
          ((1.9e6 /. 1e9) +. (276.04 /. 1e6))
          (Psd_model.phase_psd p 1e3));
    Testkit.case "phase <-> frac_freq round trip" (fun () ->
        let p = { Psd_model.b_th = 276.04; b_fl = 1.9152e6 } in
        let y = Psd_model.frac_freq_of_phase ~f0:103e6 p in
        let back = Psd_model.phase_of_frac_freq ~f0:103e6 y in
        Testkit.check_rel ~tol:1e-12 "b_th" p.b_th back.Psd_model.b_th;
        Testkit.check_rel ~tol:1e-12 "b_fl" p.b_fl back.Psd_model.b_fl);
    Testkit.case "calibration identities" (fun () ->
        (* h0 = 2 b_th / f0^2, h-1 = 2 b_fl / f0^2. *)
        let f0 = 103e6 in
        let p = { Psd_model.b_th = 276.04; b_fl = 1.9152e6 } in
        let y = Psd_model.frac_freq_of_phase ~f0 p in
        Testkit.check_rel ~tol:1e-12 "h0" (2.0 *. 276.04 /. (f0 *. f0)) y.Psd_model.h0;
        Testkit.check_rel ~tol:1e-12 "hm1" (2.0 *. 1.9152e6 /. (f0 *. f0)) y.Psd_model.hm1);
    Testkit.case "thermal period jitter variance matches the paper" (fun () ->
        (* sigma = sqrt(b_th/f0^3) = 15.89 ps for the paper's numbers. *)
        let p = { Psd_model.b_th = 276.04; b_fl = 0.0 } in
        let v = Psd_model.thermal_period_jitter_var ~f0:103e6 p in
        Testkit.check_rel ~tol:1e-3 "sigma in ps" 15.89 (sqrt v *. 1e12));
    Testkit.case "corner frequency" (fun () ->
        let p = { Psd_model.b_th = 2.0; b_fl = 10.0 } in
        Testkit.check_rel ~tol:1e-12 "corner" 5.0 (Psd_model.corner_frequency p));
    Testkit.case "rejects non-positive frequency" (fun () ->
        Alcotest.check_raises "f=0" (Invalid_argument "Psd_model: f <= 0") (fun () ->
            ignore (Psd_model.phase_psd { Psd_model.b_th = 1.0; b_fl = 1.0 } 0.0)));
  ]

let white_tests =
  [
    Testkit.case "level/variance round trip" (fun () ->
        let v = White.variance_of_level ~level:4e-3 ~fs:250.0 in
        Testkit.check_rel ~tol:1e-12 "variance" 0.5 v;
        Testkit.check_rel ~tol:1e-12 "level" 4e-3 (White.level_of_variance ~variance:v ~fs:250.0));
    Testkit.case "generated white noise hits its PSD level" (fun () ->
        let level = 2e-4 and fs = 1e3 in
        let sigma = sqrt (White.variance_of_level ~level ~fs) in
        let x = Testkit.source_samples (Source.white ~sigma) (Testkit.rng ()) (1 lsl 16) in
        let s = Ptrng_signal.Psd.welch ~seg_len:1024 ~fs x in
        let measured = Ptrng_signal.Psd.band_mean s ~f_lo:(fs /. 50.0) ~f_hi:(fs /. 2.2) in
        Testkit.check_rel ~tol:0.05 "level" level measured);
  ]

let kasdin_tests =
  [
    Testkit.case "fractional-integrator coefficients (alpha = 1)" (fun () ->
        (* h0 = 1, h_k = h_{k-1} (k - 1/2) / k: 1, 1/2, 3/8, 5/16 ... *)
        let h = Kasdin.coefficients ~alpha:1.0 5 in
        Alcotest.(check (array (float 1e-12)))
          "first coefficients"
          [| 1.0; 0.5; 0.375; 0.3125; 0.2734375 |]
          h);
    Testkit.case "alpha = 0 is an identity filter" (fun () ->
        let h = Kasdin.coefficients ~alpha:0.0 4 in
        Alcotest.(check (array (float 1e-12))) "delta" [| 1.0; 0.0; 0.0; 0.0 |] h);
    Testkit.case "alpha = 2 integrates (all ones)" (fun () ->
        let h = Kasdin.coefficients ~alpha:2.0 4 in
        Alcotest.(check (array (float 1e-12))) "ones" [| 1.0; 1.0; 1.0; 1.0 |] h);
    Testkit.case "flicker block PSD has slope -1 and level h-1" (fun () ->
        let hm1 = 3e-5 and fs = 1.0 in
        let x =
          Testkit.source_samples (Source.flicker_fm ~hm1 ()) (Testkit.rng ()) (1 lsl 16)
        in
        let s = Ptrng_signal.Psd.welch ~seg_len:4096 ~fs x in
        let slope, _ = Slope.log_log_slope s ~f_lo:(4.0 /. 4096.0) ~f_hi:0.05 in
        Testkit.check_abs ~tol:0.15 "slope" (-1.0) slope;
        (* Level at a reference frequency inside the calibrated band. *)
        let f_ref = 0.01 in
        let level = Ptrng_signal.Psd.band_mean s ~f_lo:(f_ref /. 1.3) ~f_hi:(f_ref *. 1.3) in
        Testkit.check_rel ~tol:0.25 "level" (hm1 /. f_ref) level);
    Testkit.case "stream agrees with block spectrum above fs/taps" (fun () ->
        let g = Testkit.rng () in
        let sigma_w = sqrt (Float.pi *. 1e-4) in
        let st = Kasdin.stream_create g ~alpha:1.0 ~sigma_w ~taps:1024 in
        let n = 1 lsl 15 in
        let x = Array.init n (fun _ -> Kasdin.stream_next st) in
        let s = Ptrng_signal.Psd.welch ~seg_len:2048 ~fs:1.0 x in
        let slope, _ = Slope.log_log_slope s ~f_lo:(8.0 /. 1024.0) ~f_hi:0.05 in
        Testkit.check_abs ~tol:0.2 "slope" (-1.0) slope);
    Testkit.case "allan variance of flicker block is flat" (fun () ->
        let hm1 = 1e-6 in
        let y =
          Testkit.source_samples (Source.flicker_fm ~hm1 ()) (Testkit.rng ~seed:99L ()) (1 lsl 16)
        in
        let reference = Ptrng_stats.Allan.avar_flicker_fm ~hm1 in
        List.iter
          (fun m ->
            let est = Ptrng_stats.Allan.avar_overlapping ~tau0:1.0 ~m y in
            Testkit.check_rel ~tol:0.25 (Printf.sprintf "m=%d" m) reference est)
          [ 4; 32; 256 ]);
    Testkit.case "rejects bad arguments" (fun () ->
        Alcotest.check_raises "n=0" (Invalid_argument "Kasdin.coefficients: n <= 0")
          (fun () -> ignore (Kasdin.coefficients ~alpha:1.0 0)));
  ]

let voss_tests =
  [
    Testkit.case "spectrum slope is about -1" (fun () ->
        let v = Voss.create (Testkit.rng ()) ~octaves:16 in
        let x = voss_samples v (1 lsl 16) in
        let s = Ptrng_signal.Psd.welch ~seg_len:4096 ~fs:1.0 x in
        let slope, _ = Slope.log_log_slope s ~f_lo:2e-3 ~f_hi:0.1 in
        Testkit.check_abs ~tol:0.2 "slope" (-1.0) slope);
    Testkit.case "level matches sigma^2/ln2 within the staircase ripple" (fun () ->
        let v = Voss.create (Testkit.rng ()) ~octaves:16 in
        let x = voss_samples v (1 lsl 16) in
        let s = Ptrng_signal.Psd.welch ~seg_len:4096 ~fs:1.0 x in
        let f_ref = 0.01 in
        let level = Ptrng_signal.Psd.band_mean s ~f_lo:(f_ref /. 2.0) ~f_hi:(f_ref *. 2.0) in
        Testkit.check_rel ~tol:0.35 "level" (Voss.level_hm1 ~sigma:1.0 /. f_ref) level);
    Testkit.case "rejects octave overflow" (fun () ->
        let rng = Testkit.rng () in
        Alcotest.check_raises "63" (Invalid_argument "Voss.create: octaves outside [1,62]")
          (fun () -> ignore (Voss.create rng ~octaves:63)));
  ]

let spectral_synth_tests =
  [
    Testkit.case "white target reproduces a flat spectrum" (fun () ->
        let rng = Testkit.rng () in
        let level = 5e-4 and fs = 100.0 in
        let x = Spectral_synth.generate rng ~psd:(Testkit.psd ~h0:level ()) ~fs (1 lsl 15) in
        let s = Ptrng_signal.Psd.welch ~seg_len:1024 ~fs x in
        let measured = Ptrng_signal.Psd.band_mean s ~f_lo:(fs /. 100.0) ~f_hi:(fs /. 2.2) in
        Testkit.check_rel ~tol:0.06 "level" level measured);
    Testkit.case "1/f target reproduces slope and level" (fun () ->
        let rng = Testkit.rng () in
        let hm1 = 1e-3 and fs = 1.0 in
        let x = Spectral_synth.generate rng ~psd:(Testkit.psd ~hm1 ()) ~fs (1 lsl 16) in
        let s = Ptrng_signal.Psd.welch ~seg_len:4096 ~fs x in
        let slope, _ = Slope.log_log_slope s ~f_lo:2e-3 ~f_hi:0.2 in
        Testkit.check_abs ~tol:0.1 "slope" (-1.0) slope;
        let f_ref = 0.02 in
        let level = Ptrng_signal.Psd.band_mean s ~f_lo:(f_ref /. 1.3) ~f_hi:(f_ref *. 1.3) in
        Testkit.check_rel ~tol:0.2 "level" (hm1 /. f_ref) level);
    Testkit.case "flicker synthesis matches the Allan closed form" (fun () ->
        let rng = Testkit.rng ~seed:123L () in
        let hm1 = 2e-6 in
        let y = Spectral_synth.generate rng ~psd:(Testkit.psd ~hm1 ()) ~fs:1.0 (1 lsl 17) in
        let reference = Ptrng_stats.Allan.avar_flicker_fm ~hm1 in
        List.iter
          (fun m ->
            let est = Ptrng_stats.Allan.avar_overlapping ~tau0:1.0 ~m y in
            Testkit.check_rel ~tol:0.2 (Printf.sprintf "m=%d" m) reference est)
          [ 8; 64; 512 ]);
    Testkit.case "white FM synthesis matches the Allan closed form" (fun () ->
        let rng = Testkit.rng ~seed:124L () in
        let h0 = 3e-5 in
        let y = Spectral_synth.generate rng ~psd:(Testkit.psd ~h0 ()) ~fs:1.0 (1 lsl 16) in
        List.iter
          (fun m ->
            let tau = float_of_int m in
            let est = Ptrng_stats.Allan.avar_overlapping ~tau0:1.0 ~m y in
            Testkit.check_rel ~tol:0.15 (Printf.sprintf "m=%d" m)
              (Ptrng_stats.Allan.avar_white_fm ~h0 ~tau) est)
          [ 1; 8; 64 ]);
    Testkit.case "white + flicker mixture has both regimes" (fun () ->
        let rng = Testkit.rng () in
        let h0 = 1e-4 and hm1 = 1e-6 in
        let y = Spectral_synth.generate rng ~psd:(Testkit.psd ~h0 ~hm1 ()) ~fs:1.0 (1 lsl 16) in
        let s = Ptrng_signal.Psd.welch ~seg_len:4096 ~fs:1.0 y in
        (* At high f the white floor dominates, at low f the 1/f term. *)
        let high = Ptrng_signal.Psd.band_mean s ~f_lo:0.2 ~f_hi:0.45 in
        Testkit.check_rel ~tol:0.1 "white floor" h0 high;
        let low = Ptrng_signal.Psd.band_mean s ~f_lo:0.002 ~f_hi:0.004 in
        Testkit.check_rel ~tol:0.35 "flicker lift" (h0 +. (hm1 /. 0.003)) low);
    Testkit.case "zero model yields silence" (fun () ->
        let rng = Testkit.rng () in
        let y = Spectral_synth.generate rng ~psd:(Testkit.psd ()) ~fs:1.0 256 in
        Array.iter (fun v -> Testkit.check_abs ~tol:0.0 "zero" 0.0 v) y);
    Testkit.case "block has zero mean (DC bin forced to zero)" (fun () ->
        let rng = Testkit.rng () in
        let y = Spectral_synth.generate rng ~psd:(Testkit.psd ~hm1:1e-3 ()) ~fs:1.0 4096 in
        let scale = sqrt (Ptrng_stats.Descriptive.variance y) in
        Testkit.check_abs ~tol:(1e-12 *. scale) "mean" 0.0 (Ptrng_stats.Descriptive.mean y));
    Testkit.case "generate advances the caller by one draw" (fun () ->
        let rng = Testkit.rng ~seed:5L () and twin = Testkit.rng ~seed:5L () in
        ignore (Spectral_synth.generate rng ~psd:(Testkit.psd ~h0:1.0 ()) ~fs:1.0 1024);
        ignore (Ptrng_prng.Rng.bits64 twin);
        Alcotest.(check int64) "next draw" (Ptrng_prng.Rng.bits64 twin)
          (Ptrng_prng.Rng.bits64 rng));
    Testkit.case "generate is generate_with_root on one root draw" (fun () ->
        let psd = Testkit.psd ~h0:1.0 ~hm1:0.1 () in
        let y = Spectral_synth.generate (Testkit.rng ~seed:6L ()) ~psd ~fs:2.0 2048 in
        let root = Ptrng_prng.Rng.bits64 (Testkit.rng ~seed:6L ()) in
        let z = Spectral_synth.generate_with_root ~root ~psd ~fs:2.0 2048 in
        Alcotest.(check string) "same block"
          (Testkit.float_digest (Array.to_seq y))
          (Testkit.float_digest (Float.Array.to_seq z)));
    Testkit.case "generate_into with cached amplitudes equals generate_with_root"
      (fun () ->
        let psd = Testkit.psd ~hm1:2.0 () and n = 1024 in
        let amplitudes = Spectral_synth.amplitudes ~psd ~fs:1.0 n in
        Alcotest.(check int) "n/2 bins" (n / 2) (Float.Array.length amplitudes);
        let re = Float.Array.make n nan in
        let scratch = Spectral_synth.scratch n in
        (* Twice through one scratch: the second block must not see the
           first one's leftovers. *)
        Spectral_synth.generate_into ~root:76L ~amplitudes ~scratch re;
        Spectral_synth.generate_into ~root:77L ~amplitudes ~scratch re;
        let z = Spectral_synth.generate_with_root ~root:77L ~psd ~fs:1.0 n in
        Alcotest.(check string) "same block"
          (Testkit.float_digest (Float.Array.to_seq z))
          (Testkit.float_digest (Float.Array.to_seq re)));
    Testkit.case "generate_into rejects mismatched buffers" (fun () ->
        let amplitudes = Spectral_synth.amplitudes ~psd:(Testkit.psd ~h0:1.0 ()) ~fs:1.0 64 in
        let scratch = Spectral_synth.scratch 64 in
        Alcotest.check_raises "length 100"
          (Invalid_argument "Spectral_synth.generate_into: length not a power of two")
          (fun () ->
            Spectral_synth.generate_into ~root:1L ~amplitudes ~scratch
              (Float.Array.create 100));
        Alcotest.check_raises "length 128"
          (Invalid_argument "Spectral_synth.generate_into: amplitudes length <> n/2")
          (fun () ->
            Spectral_synth.generate_into ~root:1L ~amplitudes ~scratch
              (Float.Array.create 128));
        (* The scratch holds bins 0 .. n/2 (33 floats for n = 64): one
           built for a longer or a shorter block is refused. *)
        List.iter
          (fun m ->
            Alcotest.check_raises
              (Printf.sprintf "scratch for %d" m)
              (Invalid_argument "Spectral_synth.generate_into: scratch not built for n")
              (fun () ->
                Spectral_synth.generate_into ~root:1L ~amplitudes
                  ~scratch:(Spectral_synth.scratch m) (Float.Array.create 64)))
          [ 128; 32 ]);
    Testkit.case "generate_many gives distinct blocks" (fun () ->
        let blocks =
          Spectral_synth.generate_many (Testkit.rng ()) ~psd:(Testkit.psd ~h0:1.0 ()) ~fs:1.0
            ~count:3 256
        in
        Alcotest.(check int) "count" 3 (Array.length blocks);
        Array.iter (fun b -> Alcotest.(check int) "length" 256 (Array.length b)) blocks;
        Testkit.check_true "0 <> 1" (blocks.(0) <> blocks.(1));
        Testkit.check_true "1 <> 2" (blocks.(1) <> blocks.(2));
        Alcotest.check_raises "count -1"
          (Invalid_argument "Spectral_synth.generate_many: count < 0")
          (fun () ->
            ignore
              (Spectral_synth.generate_many (Testkit.rng ()) ~psd:(Testkit.psd ~h0:1.0 ()) ~fs:1.0
                 ~count:(-1) 256)));
    Testkit.case "rejects non-positive fs" (fun () ->
        Alcotest.check_raises "fs 0" (Invalid_argument "Spectral_synth.generate: fs <= 0")
          (fun () ->
            ignore (Spectral_synth.generate (Testkit.rng ()) ~psd:(Testkit.psd ~h0:1.0 ()) ~fs:0.0 64)));
    Testkit.case "rejects random-walk FM (hm2 <> 0)" (fun () ->
        let psd = { Psd_model.h0 = 0.0; hm1 = 1e-3; hm2 = 1e-9 } in
        Alcotest.check_raises "generate"
          (Invalid_argument "Spectral_synth.generate: hm2 <> 0")
          (fun () -> ignore (Spectral_synth.generate (Testkit.rng ()) ~psd ~fs:1.0 64));
        Alcotest.check_raises "amplitudes"
          (Invalid_argument "Spectral_synth.amplitudes: hm2 <> 0")
          (fun () -> ignore (Spectral_synth.amplitudes ~psd ~fs:1.0 64));
        Alcotest.check_raises "generate_many"
          (Invalid_argument "Spectral_synth.generate_many: hm2 <> 0")
          (fun () ->
            ignore
              (Spectral_synth.generate_many (Testkit.rng ()) ~psd ~fs:1.0 ~count:0 64));
        Alcotest.check_raises "Source.spectral"
          (Invalid_argument "Source.spectral: hm2 <> 0")
          (fun () -> ignore (Source.spectral ~psd ~fs:1.0 ())));
    Testkit.case "rejects non-pow2 length" (fun () ->
        let rng = Testkit.rng () in
        Alcotest.check_raises "100"
          (Invalid_argument "Spectral_synth.generate: n must be a power of two")
          (fun () -> ignore (Spectral_synth.generate rng ~psd:(Testkit.psd ~h0:1.0 ()) ~fs:1.0 100)));
  ]

(* An independent synthesis of the block [Spectral_synth] builds for
   [root]: the same child streams, draws and amplitudes written into
   the full Hermitian spectrum (bin n - k the conjugate of bin k), then
   the n-point complex inverse [Fft.inverse_pow2].  It shares no code
   with the library's half-spectrum transform. *)
module Reference_synth = struct
  module FA = Float.Array
  module Rng = Ptrng_prng.Rng

  (* Bins per child stream, part of the output contract. *)
  let bin_chunk = 4096

  let block ~root ~psd ~fs n =
    let re = FA.make n 0.0 and im = FA.make n 0.0 in
    let half = n / 2 in
    if half >= 1 then begin
      let amps = Spectral_synth.amplitudes ~psd ~fs n in
      let nchunks = (half - 1 + bin_chunk - 1) / bin_chunk in
      for ci = 0 to nchunks - 1 do
        let child = Rng.child ~root ~index:ci () in
        let k_lo = 1 + (ci * bin_chunk) in
        let k_hi = min (half - 1) (k_lo + bin_chunk - 1) in
        let d = FA.create (2 * (k_hi - k_lo + 1)) in
        Ptrng_prng.Gaussian.fill_fa child ~sigma:1.0 d ~pos:0 ~len:(FA.length d);
        for k = k_lo to k_hi do
          let amp = FA.get amps (k - 1) and j = 2 * (k - k_lo) in
          let a = amp *. FA.get d j and b = amp *. FA.get d (j + 1) in
          FA.set re k a;
          FA.set im k b;
          FA.set re (n - k) a;
          FA.set im (n - k) (-.b)
        done
      done;
      let d = FA.create 1 in
      Ptrng_prng.Gaussian.fill_fa (Rng.child ~root ~index:(nchunks + 1) ()) ~sigma:1.0 d
        ~pos:0 ~len:1;
      FA.set re half (FA.get amps (half - 1) *. FA.get d 0)
    end;
    Ptrng_signal.Fft.inverse_pow2 ~re ~im;
    re

  (* Every sample of [got] within [1e-12] of the reference block's rms. *)
  let check name expected got =
    let n = FA.length expected in
    let ss = ref 0.0 in
    FA.iter (fun v -> ss := !ss +. (v *. v)) expected;
    let tol = 1e-12 *. sqrt (!ss /. float_of_int n) in
    Alcotest.(check int) (name ^ ": length") n (FA.length got);
    FA.iteri
      (fun i e ->
        let g = FA.get got i in
        if not (Float.abs (g -. e) <= tol) then
          Alcotest.failf "%s: sample %d is %h, reference %h (tolerance %g)" name i g e
            tol)
      expected

  (* [generate_with_root] and [generate_into] against the reference, for
     a white and a 1/f target and three roots. *)
  let check_length log2n =
    let n = 1 lsl log2n and fs = 1e6 in
    List.iter
      (fun (label, psd) ->
        let amplitudes = Spectral_synth.amplitudes ~psd ~fs n in
        let scratch = Spectral_synth.scratch n in
        let into = FA.make n nan in
        List.iter
          (fun root ->
            let name = Printf.sprintf "2^%d %s root %Ld" log2n label root in
            let expected = block ~root ~psd ~fs n in
            check (name ^ " generate_with_root") expected
              (Spectral_synth.generate_with_root ~root ~psd ~fs n);
            Spectral_synth.generate_into ~root ~amplitudes ~scratch into;
            check (name ^ " generate_into") expected into)
          [ 1L; 0x5eed_2014L; -7L ])
      [ ("white", Testkit.psd ~h0:1e-3 ()); ("1/f", Testkit.psd ~hm1:2.0 ()) ]
end

let equivalence_tests =
  [
    Testkit.case "synthesis == full-spectrum reference, 2^0 .. 2^20" (fun () ->
        for log2n = 0 to 20 do
          Reference_synth.check_length log2n
        done);
    Testkit.slow_case "synthesis == full-spectrum reference, 2^22" (fun () ->
        Reference_synth.check_length 22);
  ]

let cross_generator_tests =
  [
    Testkit.slow_case "three flicker generators agree on the Allan level" (fun () ->
        (* Kasdin, spectral synthesis and Voss are independent
           constructions; their Allan variances at matched h-1 must
           agree within estimator error + Voss ripple. *)
        let hm1 = 1e-6 in
        let n = 1 lsl 16 in
        let reference = Ptrng_stats.Allan.avar_flicker_fm ~hm1 in
        let kasdin =
          Testkit.source_samples (Source.flicker_fm ~hm1 ()) (Testkit.rng ~seed:1L ()) n
        in
        let rng2 = Testkit.rng ~seed:2L () in
        let spectral =
          Spectral_synth.generate rng2 ~psd:(Testkit.psd ~hm1 ()) ~fs:1.0 n
        in
        let voss_gen = Voss.create (Testkit.rng ~seed:3L ()) ~octaves:16 in
        let sigma = sqrt (hm1 *. log 2.0) in
        let voss = Array.map (fun v -> sigma *. v) (voss_samples voss_gen n) in
        List.iter
          (fun (name, series, tol) ->
            let est = Ptrng_stats.Allan.avar_overlapping ~tau0:1.0 ~m:64 series in
            Testkit.check_rel ~tol name reference est)
          [ ("kasdin", kasdin, 0.25); ("spectral", spectral, 0.25); ("voss", voss, 0.4) ]);
  ]

let () =
  Alcotest.run "ptrng_noise"
    [
      ("psd_model", psd_model_tests);
      ("white", white_tests);
      ("kasdin", kasdin_tests);
      ("voss", voss_tests);
      ("spectral_synth", spectral_synth_tests);
      ("equivalence", equivalence_tests);
      ("cross_generator", cross_generator_tests);
    ]
