open Ptrng_trng

let bitstream_tests =
  [
    Testkit.case "of_ints validates bit values" (fun () ->
        let s = Bitstream.of_ints [| 1; 0; 1; 1 |] in
        Alcotest.(check int) "length" 4 (Bitstream.length s);
        Testkit.check_true "bit 0" (Bitstream.get s 0);
        Testkit.check_false "bit 1" (Bitstream.get s 1);
        Alcotest.check_raises "2 is not a bit"
          (Invalid_argument "Bitstream.of_ints: 2 is not a bit")
          (fun () -> ignore (Bitstream.of_ints [| 2 |])));
    Testkit.case "to_bytes packs MSB first" (fun () ->
        let s = Bitstream.of_ints [| 1; 0; 1; 0; 0; 0; 0; 1; 1 |] in
        let b = Bitstream.to_bytes s in
        Alcotest.(check int) "bytes" 2 (Bytes.length b);
        Alcotest.(check int) "first byte" 0xA1 (Char.code (Bytes.get b 0));
        Alcotest.(check int) "padded tail" 0x80 (Char.code (Bytes.get b 1)));
    Testkit.case "ones and bias" (fun () ->
        let s = Bitstream.of_ints [| 1; 1; 1; 0 |] in
        Alcotest.(check int) "ones" 3 (Bitstream.ones s);
        Testkit.check_rel ~tol:1e-12 "bias" 0.25 (Bitstream.bias s));
    Testkit.case "sub and concat" (fun () ->
        let s = Bitstream.of_ints [| 1; 0; 1; 1; 0 |] in
        let t = Bitstream.sub s ~pos:1 ~len:3 in
        Alcotest.(check int) "sub length" 3 (Bitstream.length t);
        let u = Bitstream.concat [ t; t ] in
        Alcotest.(check int) "concat length" 6 (Bitstream.length u);
        Testkit.check_false "first" (Bitstream.get u 0);
        Testkit.check_true "second" (Bitstream.get u 1));
    Testkit.case "serial correlation of alternating bits is -1" (fun () ->
        let s = Bitstream.of_bools (Array.init 100 (fun i -> i land 1 = 0)) in
        Testkit.check_abs ~tol:0.05 "alternating" (-1.0) (Bitstream.serial_correlation s));
    Testkit.case "serial correlation of random bits is ~0" (fun () ->
        let rng = Testkit.rng () in
        let s = Bitstream.of_bools (Array.init 20000 (fun _ -> Ptrng_prng.Rng.bool rng)) in
        Testkit.check_abs ~tol:0.03 "random" 0.0 (Bitstream.serial_correlation s));
  ]

let sampler_tests =
  [
    Testkit.case "state_at reads the square wave" (fun () ->
        (* Period 2 s: high on [0,1), low on [1,2). *)
        let edges = [| 0.0; 2.0; 4.0 |] in
        Testkit.check_true "early" (Sampler.state_at ~edges 0.5);
        Testkit.check_false "late" (Sampler.state_at ~edges 1.5);
        Testkit.check_true "second period" (Sampler.state_at ~edges 2.9);
        Alcotest.check_raises "outside"
          (Invalid_argument "Sampler.state_at: instant outside edge span")
          (fun () -> ignore (Sampler.state_at ~edges 4.5)));
    Testkit.case "sample latches at divided clock edges" (fun () ->
        (* Osc1: period 2 (high first half).  Osc2: period 3.
           divisor 1 -> samples at t = 3, 6, 9, ...:
           t=3: 3 mod 2 = 1 -> low; t=6: 0 -> high; t=9: 1 -> low. *)
        let osc1 = Array.init 20 (fun i -> 2.0 *. float_of_int i) in
        let osc2 = Array.init 10 (fun i -> 3.0 *. float_of_int i) in
        let bits = Sampler.sample ~osc1_edges:osc1 ~osc2_edges:osc2 ~divisor:1 in
        Alcotest.(check (array bool)) "pattern"
          [| false; true; false; true; false; true; false; true; false |]
          bits);
    Testkit.case "divisor strides the sampling clock" (fun () ->
        let osc1 = Array.init 200 (fun i -> 2.0 *. float_of_int i) in
        let osc2 = Array.init 100 (fun i -> 3.0 *. float_of_int i) in
        let bits = Sampler.sample ~osc1_edges:osc1 ~osc2_edges:osc2 ~divisor:4 in
        (* Samples at t = 12, 24, 36...: 12 mod 2 = 0 -> all high. *)
        Array.iter (fun b -> Testkit.check_true "high" b) bits;
        Alcotest.(check int) "count" 24 (Array.length bits));
    Testkit.case "rejects non-positive divisor" (fun () ->
        Alcotest.check_raises "divisor" (Invalid_argument "Sampler.sample: divisor <= 0")
          (fun () ->
            ignore (Sampler.sample ~osc1_edges:[| 0.0; 1.0 |] ~osc2_edges:[| 0.0 |] ~divisor:0)));
    (* The streamed sampler fed [n] periods of each ring, cut into
       random chunks of 1 .. [max_chunk] periods, against
       [Sampler.sample] on the concatenated edges.  The rings are 2%
       apart: with osc1 faster its edges fall behind the sample
       instants, which pile up unlatched; with osc2 faster osc1 runs
       ahead, and the edges a later instant needs pile up instead.
       Both outgrow the initial buffers.  A second pass stops at a
       random bit capacity and must give the same prefix. *)
    Testkit.qcheck ~count:60 "streamed sampler == sample, any partition"
      QCheck2.Gen.(
        quad int (oneofl [ 1; 3; 1000 ]) bool (oneofl [ 1; 7; 300; 4096 ]))
      (fun (seed, divisor, osc1_faster, max_chunk) ->
        let rng = Ptrng_prng.Rng.create ~seed:(Int64.of_int seed) () in
        let n = if divisor = 1000 then 40000 else 6000 in
        let t1, t2 = if osc1_faster then (1.0, 1.02) else (1.02, 1.0) in
        let jittered t = t *. (1.0 +. (0.1 *. (Ptrng_prng.Rng.float rng -. 0.5))) in
        let a1 = Array.init n (fun _ -> jittered t1) in
        let a2 = Array.init n (fun _ -> jittered t2) in
        let expected =
          Sampler.sample
            ~osc1_edges:(Ptrng_osc.Oscillator.edges_of_periods a1)
            ~osc2_edges:(Ptrng_osc.Oscillator.edges_of_periods a2)
            ~divisor
        in
        let p1 = Float.Array.map_from_array Fun.id a1 in
        let p2 = Float.Array.map_from_array Fun.id a2 in
        let chunks =
          let rec cut pos acc =
            if pos >= n then List.rev acc
            else
              let len = min (n - pos) (1 + Ptrng_prng.Rng.int_below rng max_chunk) in
              cut (pos + len) ((pos, len) :: acc)
          in
          cut 0 []
        in
        let streamed cap =
          let st = Sampler.create ~divisor ~chunk:max_chunk in
          let bits = Array.make cap false in
          let pos =
            List.fold_left
              (fun pos (off, len) ->
                Sampler.feed st ~p1:(Float.Array.sub p1 off len)
                  ~p2:(Float.Array.sub p2 off len) ~len ~bits ~pos)
              0 chunks
          in
          Array.sub bits 0 pos
        in
        let m = Array.length expected in
        let cap = Ptrng_prng.Rng.int_below rng (m + 1) in
        m > 0
        && streamed (m + 10) = expected
        && streamed cap = Array.sub expected 0 cap);
    Testkit.case "feed rejects bad ranges" (fun () ->
        let st = Sampler.create ~divisor:1 ~chunk:4 in
        let p = Float.Array.make 4 1.0 in
        Alcotest.check_raises "len" (Invalid_argument "Sampler.feed: bad len")
          (fun () -> ignore (Sampler.feed st ~p1:p ~p2:p ~len:5 ~bits:[||] ~pos:0));
        Alcotest.check_raises "pos" (Invalid_argument "Sampler.feed: bad pos")
          (fun () ->
            ignore (Sampler.feed st ~p1:p ~p2:p ~len:4 ~bits:(Array.make 2 false) ~pos:3)));
  ]

let post_process_tests =
  [
    Testkit.case "xor_decimate computes group parity" (fun () ->
        let s = Bitstream.of_ints [| 1; 0; 1; 1; 0; 0; 1; 1; 1 |] in
        let out = Post_process.xor_decimate ~k:3 s in
        Alcotest.(check int) "length" 3 (Bitstream.length out);
        Testkit.check_false "110 -> 0" (Bitstream.get out 0);
        Testkit.check_true "100 -> 1" (Bitstream.get out 1);
        Testkit.check_true "111 -> 1" (Bitstream.get out 2));
    Testkit.case "xor_decimate reduces bias per the piling-up lemma" (fun () ->
        let rng = Testkit.rng () in
        let p = 0.6 in
        let raw =
          Bitstream.of_bools
            (Array.init 400000 (fun _ -> Ptrng_prng.Distributions.bernoulli rng ~p))
        in
        let out = Post_process.xor_decimate ~k:4 raw in
        let expected = Post_process.expected_xor_bias ~bias:0.1 ~k:4 in
        Testkit.check_abs ~tol:0.004 "bias" expected (Bitstream.bias out));
    Testkit.case "expected_xor_bias closed form" (fun () ->
        Testkit.check_rel ~tol:1e-12 "k=4" (8.0 *. (0.1 ** 4.0))
          (Post_process.expected_xor_bias ~bias:0.1 ~k:4));
    Testkit.case "von_neumann mapping" (fun () ->
        let s = Bitstream.of_ints [| 0; 1; 1; 0; 0; 0; 1; 1; 1; 0 |] in
        let out = Post_process.von_neumann s in
        (* Pairs: 01 -> 0, 10 -> 1, 00 -> drop, 11 -> drop, 10 -> 1. *)
        Alcotest.(check int) "length" 3 (Bitstream.length out);
        Testkit.check_false "01" (Bitstream.get out 0);
        Testkit.check_true "10" (Bitstream.get out 1);
        Testkit.check_true "10 again" (Bitstream.get out 2));
    Testkit.case "von_neumann unbiases independent biased bits" (fun () ->
        let rng = Testkit.rng () in
        let raw =
          Bitstream.of_bools
            (Array.init 200000 (fun _ -> Ptrng_prng.Distributions.bernoulli rng ~p:0.7))
        in
        let out = Post_process.von_neumann raw in
        (* Throughput p(1-p)*2 = 0.42 pairs kept. *)
        Testkit.check_true "output long enough" (Bitstream.length out > 30000);
        Testkit.check_abs ~tol:0.01 "bias" 0.0 (Bitstream.bias out));
  ]

let ero_trng_tests =
  [
    Testkit.case "generates the requested number of bits" (fun () ->
        let cfg = Ero_trng.config ~divisor:100 (Ptrng_osc.Pair.paper_pair ()) in
        let s = Ero_trng.generate (Testkit.rng ()) cfg ~bits:500 in
        Alcotest.(check int) "bits" 500 (Bitstream.length s));
    Testkit.case "xor_factor divides the output length" (fun () ->
        let cfg = Ero_trng.config ~divisor:50 ~xor_factor:2 (Ptrng_osc.Pair.paper_pair ()) in
        let s = Ero_trng.generate (Testkit.rng ()) cfg ~bits:400 in
        Alcotest.(check int) "bits" 200 (Bitstream.length s));
    Testkit.case "long accumulation gives nearly unbiased bits" (fun () ->
        (* divisor 2000 >> V_th: phase diffusion covers many periods. *)
        let cfg = Ero_trng.config ~divisor:2000 (Ptrng_osc.Pair.paper_pair ()) in
        let s = Ero_trng.generate (Testkit.rng ()) cfg ~bits:2000 in
        Testkit.check_abs ~tol:0.08 "bias" 0.0 (Bitstream.bias s));
    Testkit.case "a fast sampled ring still yields every requested bit" (fun () ->
        List.iter
          (fun detuning ->
            let pair =
              Ptrng_osc.Pair.of_relative ~detuning ~f0:Ptrng_osc.Pair.paper_f0
                ~relative:Ptrng_osc.Pair.paper_relative ()
            in
            let cfg = Ero_trng.config ~divisor:100 pair in
            let s = Ero_trng.generate_raw (Testkit.rng ()) cfg ~bits:1000 in
            Alcotest.(check int) (Printf.sprintf "detuning %g" detuning) 1000
              (Bitstream.length s))
          [ 0.05; 0.2 ]);
    Testkit.case "rejects bad bit counts" (fun () ->
        let cfg = Ero_trng.paper_trng () in
        Alcotest.check_raises "bits" (Invalid_argument "Ero_trng.generate_raw: bits <= 0")
          (fun () -> ignore (Ero_trng.generate (Testkit.rng ()) cfg ~bits:0)));
  ]

let coherent_tests =
  [
    Testkit.case "rejects non-coprime ratios" (fun () ->
        Alcotest.check_raises "6/4"
          (Invalid_argument "Coherent.config: km and kd must be coprime")
          (fun () ->
            ignore (Ptrng_trng.Coherent.config ~f0:100e6 ~km:6 ~kd:4 ())));
    Testkit.case "zero jitter gives a deterministic pattern" (fun () ->
        let cfg =
          Ptrng_trng.Coherent.config
            ~relative:{ Ptrng_noise.Psd_model.b_th = 0.0; b_fl = 0.0 }
            ~f0:100e6 ~km:17 ~kd:16 ()
        in
        let bits = Ptrng_trng.Coherent.generate (Testkit.rng ()) cfg ~bits:500 in
        (* Constant output: every pattern sees the same sample phases. *)
        let ones = Ptrng_trng.Bitstream.ones bits in
        Testkit.check_true "constant"
          (ones = 0 || ones = Ptrng_trng.Bitstream.length bits));
    Testkit.case "paper-level jitter produces nearly unbiased bits" (fun () ->
        let cfg =
          Ptrng_trng.Coherent.config ~f0:Ptrng_osc.Pair.paper_f0 ~km:157 ~kd:156 ()
        in
        let bits = Ptrng_trng.Coherent.generate (Testkit.rng ~seed:8L ()) cfg ~bits:3000 in
        Alcotest.(check int) "count" 3000 (Ptrng_trng.Bitstream.length bits);
        Testkit.check_abs ~tol:0.06 "bias" 0.0 (Ptrng_trng.Bitstream.bias bits);
        Testkit.check_abs ~tol:0.08 "serial correlation" 0.0
          (Ptrng_trng.Bitstream.serial_correlation bits));
    Testkit.case "critical fraction scales as sqrt(kd) * sigma / T1" (fun () ->
        let f0 = 100e6 in
        let cfg16 = Ptrng_trng.Coherent.config ~f0 ~km:17 ~kd:16 () in
        let cfg64 = Ptrng_trng.Coherent.config ~f0 ~km:65 ~kd:64 () in
        let sigma = 10e-12 in
        let frac16 = Ptrng_trng.Coherent.critical_fraction cfg16 ~sigma_period:sigma in
        let frac64 = Ptrng_trng.Coherent.critical_fraction cfg64 ~sigma_period:sigma in
        (* f1 differs slightly between the two ratios; compare loosely. *)
        Testkit.check_rel ~tol:0.1 "x2 when kd x4" 2.0 (frac64 /. frac16);
        let doubled = Ptrng_trng.Coherent.critical_fraction cfg16 ~sigma_period:(2.0 *. sigma) in
        Testkit.check_rel ~tol:1e-9 "linear in sigma" 2.0 (doubled /. frac16));
  ]

let attack_tests =
  [
    Testkit.case "frequency injection scales both coefficients" (fun () ->
        let pair = Ptrng_osc.Pair.paper_pair () in
        let attacked = Attack.frequency_injection ~lock_strength:0.9 pair in
        Testkit.check_rel ~tol:1e-12 "b_th x0.1"
          (pair.Ptrng_osc.Pair.osc1.Ptrng_osc.Oscillator.phase.Ptrng_noise.Psd_model.b_th *. 0.1)
          attacked.Ptrng_osc.Pair.osc1.Ptrng_osc.Oscillator.phase.Ptrng_noise.Psd_model.b_th;
        Testkit.check_rel ~tol:1e-12 "locked frequencies"
          attacked.Ptrng_osc.Pair.osc1.Ptrng_osc.Oscillator.f0
          attacked.Ptrng_osc.Pair.osc2.Ptrng_osc.Oscillator.f0);
    Testkit.case "thermal quench leaves flicker untouched" (fun () ->
        let pair = Ptrng_osc.Pair.paper_pair () in
        let attacked = Attack.thermal_quench ~factor:0.2 pair in
        Testkit.check_rel ~tol:1e-12 "b_th x0.2"
          (pair.Ptrng_osc.Pair.osc1.Ptrng_osc.Oscillator.phase.Ptrng_noise.Psd_model.b_th *. 0.2)
          attacked.Ptrng_osc.Pair.osc1.Ptrng_osc.Oscillator.phase.Ptrng_noise.Psd_model.b_th;
        Testkit.check_rel ~tol:1e-12 "b_fl unchanged"
          pair.Ptrng_osc.Pair.osc1.Ptrng_osc.Oscillator.phase.Ptrng_noise.Psd_model.b_fl
          attacked.Ptrng_osc.Pair.osc1.Ptrng_osc.Oscillator.phase.Ptrng_noise.Psd_model.b_fl);
    Testkit.case "attacked TRNG produces more biased samples" (fun () ->
        (* With the relative jitter almost gone, the sampled phase barely
           diffuses between samples: strong serial correlation. *)
        let clean = Ero_trng.config ~divisor:500 (Ptrng_osc.Pair.paper_pair ()) in
        let locked =
          Ero_trng.config ~divisor:500
            (Attack.frequency_injection ~lock_strength:0.999 (Ptrng_osc.Pair.paper_pair ()))
        in
        let s_clean = Ero_trng.generate (Testkit.rng ~seed:4L ()) clean ~bits:4000 in
        let s_locked = Ero_trng.generate (Testkit.rng ~seed:4L ()) locked ~bits:4000 in
        let corr s = Float.abs (Bitstream.serial_correlation s) in
        Testkit.check_true "correlation grows under attack"
          (corr s_locked > corr s_clean +. 0.1));
    Testkit.case "rejects out-of-range strengths" (fun () ->
        Alcotest.check_raises "1.0"
          (Invalid_argument "Attack.frequency_injection: lock_strength outside [0,1)")
          (fun () ->
            ignore (Attack.frequency_injection ~lock_strength:1.0 (Ptrng_osc.Pair.paper_pair ())));
        Alcotest.check_raises "negative lock"
          (Invalid_argument "Attack.frequency_injection: lock_strength outside [0,1)")
          (fun () ->
            ignore
              (Attack.frequency_injection ~lock_strength:(-0.1)
                 (Ptrng_osc.Pair.paper_pair ())));
        Alcotest.check_raises "zero factor"
          (Invalid_argument "Attack.thermal_quench: factor outside (0,1]")
          (fun () ->
            ignore (Attack.thermal_quench ~factor:0.0 (Ptrng_osc.Pair.paper_pair ())));
        Alcotest.check_raises "factor above one"
          (Invalid_argument "Attack.thermal_quench: factor outside (0,1]")
          (fun () ->
            ignore (Attack.thermal_quench ~factor:1.5 (Ptrng_osc.Pair.paper_pair ()))));
    Testkit.case "quench shrinks the fitted thermal coefficient" (fun () ->
        (* The statistical face of the attack: the variance-curve fit
           over the quenched pair's relative jitter must recover a
           linear coefficient close to factor x the calibrated one. *)
        let fitted_a pair seed =
          let n = 1 lsl 15 in
          let p1, p2 = Ptrng_osc.Pair.simulate (Testkit.rng ~seed ()) pair ~n in
          let jitter = Array.init n (fun i -> p1.(i) -. p2.(i)) in
          let ns = Ptrng_measure.Variance_curve.log2_grid ~n_min:4 ~n_max:256 in
          let curve =
            Ptrng_measure.Variance_curve.of_jitter
              ~f0:Ptrng_osc.Pair.paper_f0 ~ns jitter
          in
          (Ptrng_measure.Fit.fit ~f0:Ptrng_osc.Pair.paper_f0 curve).a
        in
        let clean = fitted_a (Ptrng_osc.Pair.paper_pair ()) 31L in
        let quenched =
          fitted_a
            (Attack.thermal_quench ~factor:0.05 (Ptrng_osc.Pair.paper_pair ()))
            31L
        in
        Testkit.check_true "a collapsed with the quench"
          (quenched < 0.2 *. clean));
  ]

let () =
  Alcotest.run "ptrng_trng"
    [
      ("bitstream", bitstream_tests);
      ("sampler", sampler_tests);
      ("post_process", post_process_tests);
      ("ero_trng", ero_trng_tests);
      ("coherent", coherent_tests);
      ("attack", attack_tests);
    ]
