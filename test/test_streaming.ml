(* Streamed-vs-reference equivalence for the Source API.

   The contract under test: a Source stream is a pure function of its
   creation root — identical whatever chunk sizes the fills use, and
   identical (Kasdin: to rounding) to independent references seeded the
   same way: the chunked parallel white fill, a Voss.next loop,
   Spectral_synth.generate and a direct-form convolution.  Golden
   digests pin the whole-trace simulation across refactors. *)

open Ptrng_noise
module FA = Float.Array
module Fft = Ptrng_signal.Fft
module Rng = Ptrng_prng.Rng
module Counter = Ptrng_telemetry.Registry.Counter

let chunk_sizes = [ 1; 7; 64; 1000; 4096; 8192; 10000 ]

(* Stream [total] samples out of a fresh source in chunks of [size]. *)
let streamed config ~seed ~size total =
  let src = Source.create config (Testkit.rng ~seed ()) in
  let out = FA.create total in
  let pos = ref 0 in
  while !pos < total do
    let len = min size (total - !pos) in
    Source.fill_range src out ~pos:!pos ~len;
    pos := !pos + len
  done;
  out

let check_fa_eq name expected out =
  let n = Array.length expected in
  Alcotest.(check int) (name ^ ": length") n (FA.length out);
  for i = 0 to n - 1 do
    if not (Float.equal expected.(i) (FA.get out i)) then
      Alcotest.failf "%s: sample %d differs: %h vs %h" name i expected.(i)
        (FA.get out i)
  done

let check_fa_close ~tol name expected out =
  for i = 0 to Array.length expected - 1 do
    let e = expected.(i) and a = FA.get out i in
    let scale = Float.max 1e-30 (Float.abs e) in
    if Float.abs (a -. e) /. scale > tol then
      Alcotest.failf "%s: sample %d: %.17g vs %.17g" name i e a
  done

let total = 20000

(* The batch reference for the white stream: the chunked parallel
   initializer the oscillator thermal path uses. *)
let batch_white ~seed ~sigma n =
  Ptrng_exec.Pool.parallel_init_floats ~domains:1 ~rng:(Testkit.rng ~seed ())
    ~fill:(fun child ~offset ~len out ->
      for k = offset to offset + len - 1 do
        out.(k) <- sigma *. Ptrng_prng.Gaussian.draw child
      done)
    n

let white_tests =
  [
    Testkit.case "white stream == batch parallel fill, every chunk size"
      (fun () ->
        let sigma = 2.5 in
        let expected = batch_white ~seed:11L ~sigma total in
        List.iter
          (fun size ->
            let out =
              streamed (Source.white ~sigma) ~seed:11L ~size total
            in
            check_fa_eq (Printf.sprintf "chunk %d" size) expected out)
          chunk_sizes);
    Testkit.case "reset replays the identical stream" (fun () ->
        let src = Source.create (Source.white ~sigma:1.0) (Testkit.rng ()) in
        let a = FA.create 999 and b = FA.create 999 in
        Source.fill src a;
        Source.reset src;
        Source.fill src b;
        for i = 0 to 998 do
          Testkit.check_true "equal" (Float.equal (FA.get a i) (FA.get b i))
        done);
    Testkit.case "skip lands on the same samples" (fun () ->
        let expected = batch_white ~seed:7L ~sigma:1.0 total in
        let src = Source.create (Source.white ~sigma:1.0) (Testkit.rng ~seed:7L ()) in
        let out = FA.create 100 in
        (* Jump over a chunk boundary and deep into a later chunk. *)
        Source.skip src 12000;
        Source.fill src out;
        for i = 0 to 99 do
          Testkit.check_true "sample"
            (Float.equal expected.(12000 + i) (FA.get out i))
        done;
        Alcotest.(check int) "position" 12100 (Source.position src));
  ]

let voss_tests =
  [
    Testkit.case "voss stream == batch ladder, every chunk size" (fun () ->
        let octaves = 12 and sigma = 0.5 in
        (* Replicate the source's seeding: one root draw, ladder on
           child stream 0. *)
        let rng = Testkit.rng ~seed:42L () in
        let root = Rng.bits64 rng in
        let v = Voss.create (Rng.child ~root ~index:0 ()) ~octaves in
        let expected = Array.init 5000 (fun _ -> sigma *. Voss.next v) in
        List.iter
          (fun size ->
            let out =
              streamed (Source.voss ~octaves ~sigma ()) ~seed:42L ~size 5000
            in
            check_fa_eq (Printf.sprintf "chunk %d" size) expected out)
          chunk_sizes);
  ]

let spectral_tests =
  [
    Testkit.case "spectral block 0 == Spectral_synth.generate" (fun () ->
        let psd = Testkit.psd ~hm1:1.0 () and fs = 1e6 in
        let n = 4096 in
        let expected =
          Spectral_synth.generate (Testkit.rng ~seed:5L ()) ~psd ~fs n
        in
        List.iter
          (fun size ->
            let out =
              streamed (Source.spectral ~block:n ~psd ~fs ()) ~seed:5L ~size n
            in
            check_fa_eq (Printf.sprintf "chunk %d" size) expected out)
          chunk_sizes);
    Testkit.case "blocks are independent but reproducible" (fun () ->
        let psd = Testkit.psd ~hm1:1.0 () and fs = 1e6 in
        let config = Source.spectral ~block:1024 ~psd ~fs () in
        let a = streamed config ~seed:9L ~size:512 4096 in
        let b = streamed config ~seed:9L ~size:4096 4096 in
        for i = 0 to 4095 do
          Testkit.check_true "replay" (Float.equal (FA.get a i) (FA.get b i))
        done;
        (* Distinct blocks must not repeat each other. *)
        let same = ref true in
        for i = 0 to 1023 do
          if not (Float.equal (FA.get a i) (FA.get a (1024 + i))) then
            same := false
        done;
        Testkit.check_false "blocks differ" !same);
  ]

let kasdin_tests =
  [
    Testkit.case "full-tap streamed filter == direct-form convolution" (fun () ->
        (* With taps >= n the truncated overlap-add convolution equals
           the full-length convolution of the same white input up to FFT
           rounding; the oracle is the direct-form sum, no FFT. *)
        let n = 4096 in
        let alpha = 1.0 and sigma_w = 0.7 in
        let expected =
          Ptrng_signal.Filter.fir_direct ~h:(Kasdin.coefficients ~alpha n)
            (batch_white ~seed:3L ~sigma:sigma_w n)
        in
        List.iter
          (fun size ->
            let out =
              streamed
                (Source.kasdin ~taps:n ~block:1024 ~alpha ~sigma_w ())
                ~seed:3L ~size n
            in
            check_fa_close ~tol:1e-9 (Printf.sprintf "chunk %d" size) expected
              out)
          [ 1000; 4096 ]);
    Testkit.case "overlap-add block size does not change the stream" (fun () ->
        let mk block =
          streamed
            (Source.kasdin ~taps:512 ~block ~alpha:1.0 ~sigma_w:1.0 ())
            ~seed:13L ~size:997 6000
        in
        let a = mk 256 and b = mk 2048 in
        for i = 0 to 5999 do
          let e = FA.get a i and v = FA.get b i in
          if Float.abs (v -. e) > 1e-10 *. Float.max 1.0 (Float.abs e) then
            Alcotest.failf "sample %d: %.17g vs %.17g" i e v
        done);
    Testkit.case "skip preserves the filter tail" (fun () ->
        let config = Source.kasdin ~taps:256 ~block:512 ~alpha:1.0 ~sigma_w:1.0 () in
        let expected = streamed config ~seed:21L ~size:8192 3000 in
        let src = Source.create config (Testkit.rng ~seed:21L ()) in
        Source.skip src 2000;
        let out = FA.create 1000 in
        Source.fill src out;
        for i = 0 to 999 do
          let e = FA.get expected (2000 + i) and v = FA.get out i in
          if Float.abs (v -. e) > 1e-10 *. Float.max 1.0 (Float.abs e) then
            Alcotest.failf "sample %d: %.17g vs %.17g" i e v
        done);
  ]

(* Digest of the %h renderings of every element, buffers in order. *)
let digest_fa bufs = Testkit.float_digest (Seq.concat_map FA.to_seq (List.to_seq bufs))

let uniform_fa rng n = FA.init n (fun _ -> Rng.float rng -. 0.5)

(* Change of a telemetry counter across [f], telemetry enabled. *)
let counter_delta name f =
  let c = Counter.v name in
  Ptrng_telemetry.Registry.enable ();
  Fun.protect
    ~finally:(fun () -> Ptrng_telemetry.Registry.disable ())
    (fun () ->
      let before = Counter.value c in
      f ();
      Counter.value c - before)

(* Digests of a seeded 2^log2n forward transform, and of the inverse
   transform of its output. *)
let transform_pair log2n =
  let n = 1 lsl log2n in
  let rng = Rng.create ~seed:77L () in
  let re = uniform_fa rng n in
  let im = uniform_fa rng n in
  Fft.forward_pow2 ~re ~im;
  let fwd = digest_fa [ re; im ] in
  Fft.inverse_pow2 ~re ~im;
  (fwd, digest_fa [ re; im ])

(* Block [b] of a spectral source created from [seed], built directly by
   Spectral_synth.generate_with_root on the block's salted root (block 0
   keeps the bare root). *)
let spectral_block_ref ~seed ~psd ~fs ~block b =
  let rng = Testkit.rng ~seed () in
  let root = Rng.bits64 rng in
  let root = if b = 0 then root else Rng.derive_seed root ((1 lsl 30) + b) in
  Spectral_synth.generate_with_root ~root ~psd ~fs block

(* Bytes allocated directly in the major heap across [f]: every buffer
   too large for the minor heap, none of the short-lived boxes.  (The
   minor-word count is not exact across a minor collection, so the
   total would be noisy.) *)
let major_direct_bytes f =
  let _, p0, m0 = Gc.counters () in
  f ();
  let _, p1, m1 = Gc.counters () in
  (m1 -. m0 -. (p1 -. p0)) *. float_of_int (Sys.word_size / 8)

(* Bytes of a [Float.Array.t] of [n] elements, header included. *)
let fa_bytes n = float_of_int ((n + 1) * (Sys.word_size / 8))

(* Spectral_synth's bins per child stream, part of its output contract:
   a synthesis draws each chunk's (a, b) pairs into one buffer of
   2 * bin_chunk floats. *)
let bin_chunk = 4096

let spectral_block_tests =
  let psd = Testkit.psd ~hm1:1.0 () and fs = 1e6 and block = 1 lsl 12 in
  let config = Source.spectral ~block ~psd ~fs () in
  let reference blocks =
    digest_fa (List.map (spectral_block_ref ~seed:61L ~psd ~fs ~block) blocks)
  in
  (* Read [blocks] (skipping the gaps) in fills of 1000 samples, which
     straddle every block boundary. *)
  let read src blocks =
    let out = FA.create (List.length blocks * block) in
    let pos = ref 0 in
    List.iter
      (fun b ->
        Source.skip src ((b * block) - Source.position src);
        let stop = !pos + block in
        while !pos < stop do
          let len = min 1000 (stop - !pos) in
          Source.fill_range src out ~pos:!pos ~len;
          pos := !pos + len
        done)
      blocks;
    digest_fa [ out ]
  in
  [
    (* Recorded before the amplitude spectrum was cached: blocks 1..4
       are rebuilt from the cached table, block 0 after [reset] too. *)
    Testkit.case "5-block spectral stream: in order, skip, reset" (fun () ->
        let all = [ 0; 1; 2; 3; 4 ] and skipped = [ 0; 1; 3; 4 ] in
        Alcotest.(check string) "reference, 5 blocks" "75f623ba783a79f8eed15049eae94103" (reference all);
        Alcotest.(check string) "reference, block 2 skipped" "6fc6d095dcc3e336608617e8da93d4ae"
          (reference skipped);
        let src = Source.create config (Testkit.rng ~seed:61L ()) in
        Alcotest.(check string) "in order" (reference all) (read src all);
        Source.reset src;
        Alcotest.(check string) "block 2 skipped" (reference skipped)
          (read src skipped);
        Source.reset src;
        Alcotest.(check string) "after reset" (reference all) (read src all));
    Testkit.case "one-block stream allocates only re, im and draws" (fun () ->
        let n = 1 lsl 16 in
        let config = Source.spectral ~block:n ~psd ~fs () in
        let src = Source.create config (Testkit.rng ~seed:62L ()) in
        let out = FA.create n in
        let bytes = major_direct_bytes (fun () -> Source.fill src out) in
        (* re (n floats), the imaginary parts of bins 0 .. n/2, and one
           buffer for a chunk's (a, b) draws; a full n-float im, an
           amplitude table (n/2 floats) or a draw array per chunk would
           exceed the slack. *)
        let bound =
          fa_bytes n +. fa_bytes ((n / 2) + 1) +. fa_bytes (2 * bin_chunk) +. 16384.0
        in
        Testkit.check_true
          (Printf.sprintf "%.0f bytes <= %.0f" bytes bound)
          (bytes <= bound));
    (* The PSD is evaluated inline from its coefficients: no float is
       boxed per bin, so the minor heap sees only the per-chunk child
       generators.  Comparing two block sizes cancels the constant
       miscount of the minor-word counter. *)
    Testkit.case "one-block synthesis boxes nothing per bin" (fun () ->
        let words n =
          let config = Source.spectral ~block:n ~psd ~fs () in
          let run () =
            let src = Source.create config (Testkit.rng ~seed:64L ()) in
            let out = FA.create n in
            Testkit.minor_words (fun () -> Source.fill src out)
          in
          ignore (run ());
          run ()
        in
        let small = 1 lsl 16 and large = 1 lsl 18 in
        let per_sample =
          (words large -. words small) /. float_of_int (large - small)
        in
        Testkit.check_true
          (Printf.sprintf "%.4f minor words per added sample < 0.1" per_sample)
          (per_sample < 0.1));
    Testkit.case "later blocks allocate no table and no re buffer" (fun () ->
        let n = 1 lsl 16 in
        let config = Source.spectral ~block:n ~psd ~fs () in
        let src = Source.create config (Testkit.rng ~seed:63L ()) in
        let out = FA.create n in
        Source.fill src out;
        Source.fill src out;
        let bytes = major_direct_bytes (fun () -> Source.fill src out) in
        (* The stream keeps the amplitude table, im and the draw buffer
           from the first resynthesis on, so a later block allocates no
           float array at all: a fresh im or re (n floats), a table
           (n/2 floats) or a draw buffer (2 * bin_chunk floats) would
           each exceed the constant slack. *)
        let bound = 16384.0 in
        Testkit.check_true
          (Printf.sprintf "%.0f bytes <= %.0f" bytes bound)
          (bytes <= bound));
  ]

let fft_tests =
  [
    (* Digests recorded before the floatarray and float array
       transforms were merged into one (2^10), and before the twiddle
       tables (2^14, 2^17): any change to the butterflies, twiddles or
       Bluestein path must not move a bit.  2^14 runs every tabulated
       stage (len <= 2^13) and one direct stage; 2^17 runs four direct
       stages. *)
    Testkit.case "pow2 transform digests" (fun () ->
        List.iter
          (fun (log2n, fwd, inv) ->
            let got_fwd, got_inv = transform_pair log2n in
            Alcotest.(check string) (Printf.sprintf "forward 2^%d" log2n) fwd
              got_fwd;
            Alcotest.(check string)
              (Printf.sprintf "forward then inverse 2^%d" log2n)
              inv got_inv)
          [
            (10, "01f05a14371498cc44f83ef44f38ff98", "c7eb9cc9c8d784f9a8fc47e07d10f9c0");
            (14, "152b66158a55c272fff4da7a10a85d0d", "688e2405c37792198c0cd9126a6a09d3");
            (17, "a06235066a64974eaa463537f8bcb5e9", "5bc9f93f6e99d61cfb4ffdfea9ff9bc2");
          ]);
    Testkit.case "bluestein rfft digest" (fun () ->
        let rng = Rng.create ~seed:101L () in
        let x = Array.init 1000 (fun _ -> Rng.float rng -. 0.5) in
        let re, im = Fft.rfft x in
        Alcotest.(check string) "n=1000" "403db2231188268634a8d0720aa3262b"
          (digest_fa (List.map (FA.map_from_array Fun.id) [ re; im ])));
    Testkit.case "spectral synthesis digest" (fun () ->
        let y =
          Spectral_synth.generate (Rng.create ~seed:101L ())
            ~psd:(Testkit.psd ~hm1:1.0 ()) ~fs:1.0 65536
        in
        Alcotest.(check string) "1/f, 2^16" "c67967652426efe9949c49f27d8e6fb3"
          (digest_fa [ FA.map_from_array Fun.id y ]));
    Testkit.case "kasdin overlap-add stream digest" (fun () ->
        let src =
          Source.create (Source.flicker_fm ~taps:4096 ~hm1:1e-3 ())
            (Rng.create ~seed:101L ())
        in
        let out = FA.create 20000 in
        Source.fill src out;
        Alcotest.(check string) "20000 samples" "aa28aa25cfb97b8afed0625173409cc5"
          (digest_fa [ out ]));
    (* The public transforms are counted; the overlap-add convolver's
       are not, so the streaming path never touches the histogram. *)
    Testkit.case "transform counting boundary" (fun () ->
        Alcotest.(check int) "kasdin fill counts no transform" 0
          (counter_delta "ptrng_signal_fft_total" (fun () ->
               let src =
                 Source.create (Source.flicker_fm ~taps:256 ~block:512 ~hm1:1e-3 ())
                   (Rng.create ~seed:3L ())
               in
               Source.fill src (FA.create 5000)));
        Alcotest.(check int) "one spectral block is one transform" 1
          (counter_delta "ptrng_signal_fft_total" (fun () ->
               ignore
                 (Spectral_synth.generate (Rng.create ~seed:3L ())
                    ~psd:(Testkit.psd ~hm1:1.0 ()) ~fs:1.0 4096)));
        let x = Array.make 100 1.0 and y = Array.make 100 0.0 in
        Alcotest.(check int) "length-100 dft is one bluestein" 1
          (counter_delta "ptrng_signal_fft_bluestein_total" (fun () ->
               ignore (Fft.dft ~re:x ~im:y)));
        Alcotest.(check int) "bluestein runs three pow2 passes" 3
          (counter_delta "ptrng_signal_fft_total" (fun () ->
               ignore (Fft.dft ~re:x ~im:y))));
    (* The twiddle tables are shared by every domain: they must be
       read-only for concurrent transforms to agree with one domain. *)
    Testkit.case "pow2 transforms on 2 domains == 1 domain" (fun () ->
        let one = transform_pair 14 in
        let run () = List.init 4 (fun _ -> transform_pair 14) in
        let d = Domain.spawn run in
        let here = run () in
        List.iter
          (fun got -> Testkit.check_true "digest pair" (got = one))
          (here @ Domain.join d));
    (* 2^16 runs three direct stages (one alone, one pair), 2^20 seven
       (one alone, three pairs). *)
    Testkit.case "pow2 transform allocates nothing" (fun () ->
        List.iter
          (fun log2n ->
            let n = 1 lsl log2n in
            let re = uniform_fa (Rng.create ~seed:9L ()) n and im = FA.make n 0.0 in
            Testkit.check_abs ~tol:0.0
              (Printf.sprintf "minor words, 2^%d forward" log2n)
              0.0
              (Testkit.minor_words (fun () -> Fft.forward_pow2 ~re ~im));
            Testkit.check_abs ~tol:0.0
              (Printf.sprintf "minor words, 2^%d inverse" log2n)
              0.0
              (Testkit.minor_words (fun () -> Fft.inverse_pow2 ~re ~im)))
          [ 16; 20 ]);
    Testkit.case "overlap-add == direct convolution" (fun () ->
        let taps = 37 and total = 1000 in
        let rng = Testkit.rng ~seed:15L () in
        let h = FA.init taps (fun _ -> Rng.float rng -. 0.5) in
        let x = Array.init total (fun _ -> Rng.float rng -. 0.5) in
        let direct =
          Array.init total (fun i ->
              let acc = ref 0.0 in
              for j = 0 to min i (taps - 1) do
                acc := !acc +. (FA.get h j *. x.(i - j))
              done;
              !acc)
        in
        let ola = Fft.Overlap_add.create ~h ~block:128 in
        let src = FA.init total (fun i -> x.(i)) in
        let out = FA.create total in
        let pos = ref 0 in
        (* Deliberately ragged block sizes. *)
        List.iter
          (fun len ->
            Fft.Overlap_add.process ola ~src ~src_pos:!pos ~dst:out
              ~dst_pos:!pos ~len;
            pos := !pos + len)
          [ 1; 127; 128; 100; 128; 128; 128; 128; 128; 4 ];
        Alcotest.(check int) "consumed" total !pos;
        check_fa_close ~tol:1e-12 "ola" direct out);
  ]

(* ------------------------------------------------------------------ *)
(* Oscillator / pair streaming                                         *)
(* ------------------------------------------------------------------ *)

module Osc = Ptrng_osc.Oscillator
module Pair = Ptrng_osc.Pair

let fill_chunked ?(sizes = [ 1; 100; 4096; 8192; 997 ]) src total =
  let out = FA.create total in
  let buf = FA.create 8192 in
  let pos = ref 0 in
  let rec go = function
    | [] -> go sizes
    | size :: rest ->
      if !pos < total then begin
        let len = min size (total - !pos) in
        Osc.fill_periods src ~len buf;
        FA.blit buf 0 out !pos len;
        pos := !pos + len;
        go rest
      end
  in
  if total > 0 then go sizes;
  out

let paper_cfg () =
  Osc.config ~f0:Pair.paper_f0 ~phase:Pair.paper_relative ()

let oscillator_tests =
  [
    Testkit.case "spectral source == periods, bit for bit" (fun () ->
        let n = 20000 in
        let cfg = paper_cfg () in
        let expected = Osc.periods (Testkit.rng ~seed:31L ()) cfg ~n in
        let src =
          Osc.source ~flicker_block:n (Testkit.rng ~seed:31L ()) cfg
        in
        check_fa_eq "periods" expected (fill_chunked src n));
    Testkit.case "thermal-only source == periods, bit for bit" (fun () ->
        let n = 20000 in
        let cfg =
          Osc.config ~f0:Pair.paper_f0
            ~phase:{ Pair.paper_relative with Psd_model.b_fl = 0.0 } ()
        in
        let expected = Osc.periods (Testkit.rng ~seed:32L ()) cfg ~n in
        let src = Osc.source (Testkit.rng ~seed:32L ()) cfg in
        check_fa_eq "periods" expected (fill_chunked src n));
    Testkit.case "random-walk source == periods, bit for bit" (fun () ->
        let n = 8192 in
        let cfg =
          Osc.config ~rw_hm2:1e-22 ~f0:Pair.paper_f0
            ~phase:Pair.paper_relative ()
        in
        let expected = Osc.periods (Testkit.rng ~seed:33L ()) cfg ~n in
        let src =
          Osc.source ~flicker_block:n (Testkit.rng ~seed:33L ()) cfg
        in
        check_fa_eq "periods" expected (fill_chunked src n));
    Testkit.case "source_skip lands on the same periods" (fun () ->
        let n = 16384 in
        let cfg = paper_cfg () in
        let expected = Osc.periods (Testkit.rng ~seed:34L ()) cfg ~n in
        let src =
          Osc.source ~flicker_block:n (Testkit.rng ~seed:34L ()) cfg
        in
        Osc.source_skip src 10000;
        let buf = FA.create 500 in
        Osc.fill_periods src buf;
        for i = 0 to 499 do
          Testkit.check_true "period"
            (Float.equal expected.(10000 + i) (FA.get buf i))
        done;
        Alcotest.(check int) "position" 10500 (Osc.source_position src));
    Testkit.case "source_reset replays; rw sources refuse" (fun () ->
        let cfg = paper_cfg () in
        let src = Osc.source (Testkit.rng ~seed:35L ()) cfg in
        let a = fill_chunked src 5000 in
        Osc.source_reset src;
        let b = fill_chunked src 5000 in
        for i = 0 to 4999 do
          Testkit.check_true "replay" (Float.equal (FA.get a i) (FA.get b i))
        done;
        let rw_cfg =
          Osc.config ~rw_hm2:1e-22 ~f0:1e8
            ~phase:{ Psd_model.b_th = 1.0; b_fl = 0.0 } ()
        in
        let rw_src = Osc.source (Testkit.rng ()) rw_cfg in
        Alcotest.check_raises "rw reset"
          (Invalid_argument
             "Oscillator.source_reset: random-walk FM sources cannot rewind")
          (fun () -> Osc.source_reset rw_src));
    Testkit.case "pair stream == simulate, bit for bit" (fun () ->
        let n = 16384 in
        let pair = Pair.paper_pair () in
        let p1, p2 =
          Pair.simulate ~domains:1 (Testkit.rng ~seed:36L ()) pair ~n
        in
        let st = Pair.stream ~flicker_block:n (Testkit.rng ~seed:36L ()) pair in
        let b1 = FA.create n and b2 = FA.create n in
        let pos = ref 0 in
        while !pos < n do
          let len = min 4096 (n - !pos) in
          let c1 = FA.create len and c2 = FA.create len in
          Pair.fill st ~p1:c1 ~p2:c2 ~len;
          FA.blit c1 0 b1 !pos len;
          FA.blit c2 0 b2 !pos len;
          pos := !pos + len
        done;
        check_fa_eq "osc1" p1 b1;
        check_fa_eq "osc2" p2 b2);
    Testkit.case "rejected Pair.fill leaves both rings in step" (fun () ->
        (* A short p2 must be refused before osc1 advances: the position
           stays put and the next valid fill continues the run. *)
        let n = 3000 and head = 1000 in
        let pair = Pair.paper_pair () in
        let r1 = FA.create n and r2 = FA.create n in
        Pair.fill (Pair.stream (Testkit.rng ~seed:37L ()) pair) ~p1:r1 ~p2:r2 ~len:n;
        let st = Pair.stream (Testkit.rng ~seed:37L ()) pair in
        let b1 = FA.create n and b2 = FA.create n in
        Pair.fill st ~p1:b1 ~p2:b2 ~len:head;
        Alcotest.check_raises "short p2" (Invalid_argument "Pair.fill: bad len")
          (fun () -> Pair.fill st ~p1:(FA.create n) ~p2:(FA.create 10) ~len:(n - head));
        Alcotest.(check int) "position unchanged" head (Pair.position st);
        let c1 = FA.create (n - head) and c2 = FA.create (n - head) in
        Pair.fill st ~p1:c1 ~p2:c2 ~len:(n - head);
        FA.blit c1 0 b1 head (n - head);
        FA.blit c2 0 b2 head (n - head);
        check_fa_eq "osc1" (Array.init n (FA.get r1)) b1;
        check_fa_eq "osc2" (Array.init n (FA.get r2)) b2);
    (* Postmortem.segment_check replays an incident this way. *)
    Testkit.case "Pair.skip then fill == the tail of one long fill" (fun () ->
        let block = 4096 and k = 5000 and m = 3000 in
        let pair = Pair.paper_pair () in
        let tone =
          Ptrng_device.Scenario.make ~name:"skip-check" ~description:""
            ~b_th:(Ramp { start = 0; stop = k + m; from_ = 1.0; to_ = 0.5 })
            ~faults:
              [ Tone_injection { onset = 4000; duration = 2000; freq = 0.01; amplitude = 1e-3 } ]
            ()
        in
        List.iter
          (fun (name, scenario) ->
            let whole = Pair.stream ~flicker_block:block ?scenario (Testkit.rng ~seed:38L ()) pair in
            let w1 = FA.create (k + m) and w2 = FA.create (k + m) in
            Pair.fill whole ~p1:w1 ~p2:w2 ~len:(k + m);
            let st = Pair.stream ~flicker_block:block ?scenario (Testkit.rng ~seed:38L ()) pair in
            Pair.skip st k;
            let b1 = FA.create m and b2 = FA.create m in
            Pair.fill st ~p1:b1 ~p2:b2 ~len:m;
            Alcotest.(check int) (name ^ ": position") (k + m) (Pair.position st);
            check_fa_eq (name ^ ": osc1") (Array.init m (fun i -> FA.get w1 (k + i))) b1;
            check_fa_eq (name ^ ": osc2") (Array.init m (fun i -> FA.get w2 (k + i))) b2)
          [ ("plain", None); ("scenario", Some tone) ]);
  ]

(* Digests of seeded whole-trace outputs: any change to the synthesis
   path that moves a single bit of a simulated trace or of the eRO-TRNG
   bits fails here. *)
let golden_tests =
  let trng = Ptrng_trng.Ero_trng.paper_trng () in
  let pair_digest n =
    let p1, p2 = Pair.simulate (Rng.create ~seed:101L ()) trng.pair ~n in
    Testkit.float_digest (Seq.append (Array.to_seq p1) (Array.to_seq p2))
  in
  [
    Testkit.case "Pair.simulate digests" (fun () ->
        List.iter
          (fun (n, expected) ->
            Alcotest.(check string) (Printf.sprintf "n=%d" n) expected (pair_digest n))
          [
            (1000, "6a2e574c5c02b1c897b1ea37503a618f");
            (65537, "bd4ab3a7b9fec592bcda6ba4b8fd490a");
            (300000, "811b24f6761759af09b02106cf700bf8");
          ]);
    Testkit.case "Ero_trng.generate digest" (fun () ->
        let bits = Ptrng_trng.Ero_trng.generate (Rng.create ~seed:101L ()) trng ~bits:4096 in
        Alcotest.(check string) "4096 bits" "9c8f1c58ebe2903245e523152c6a32d9"
          (Digest.to_hex (Digest.bytes (Ptrng_trng.Bitstream.to_bytes bits))));
  ]

(* The streamed generator on one domain (so every allocation lands on
   the measuring domain): beside the two flicker blocks it allocates
   O(chunk), where a whole-trace path holds two n-float period arrays
   and two (n+1)-float edge arrays, 4 x 33 MB at 4096 bits; and the
   period counter counts the periods it filled, which stop short of
   the n it sized for once every bit is latched. *)
let ero_trng_tests =
  let trng = Ptrng_trng.Ero_trng.paper_trng () in
  let bits = 4096 in
  let cycles = (bits + 2) * trng.divisor in
  let n = cycles + (cycles / 64) + 16 in
  [
    Testkit.case "Ero_trng.generate: no n-length trace, counts filled periods"
      (fun () ->
        Ptrng_exec.Pool.set_default (Some 1);
        Fun.protect
          ~finally:(fun () -> Ptrng_exec.Pool.set_default None)
          (fun () ->
            let bytes = ref 0.0 in
            let counted =
              counter_delta "ptrng_trng_periods_simulated_total" (fun () ->
                  bytes :=
                    major_direct_bytes (fun () ->
                        ignore (Ptrng_trng.Ero_trng.generate (Rng.create ~seed:5L ()) trng ~bits)))
            in
            (* Per ring: the flicker block's re, the imaginary parts of
               its bins 0 .. block/2, and one draw buffer; 4 MB covers
               the period chunks, the sampler and the bits.  A full
               block-length im per ring would exceed it. *)
            let block = Fft.next_pow2 n in
            let bound =
              (2.0
               *. (fa_bytes block +. fa_bytes ((block / 2) + 1) +. fa_bytes (2 * bin_chunk)))
              +. 4e6
            in
            Testkit.check_true
              (Printf.sprintf "%.0f bytes <= %.0f" !bytes bound)
              (!bytes <= bound);
            Testkit.check_true
              (Printf.sprintf "%d periods counted: every instant covered, fewer than 2n = %d"
                 counted (2 * n))
              (counted >= 2 * bits * trng.divisor && counted < 2 * n)));
  ]

(* ------------------------------------------------------------------ *)
(* Streaming variance-curve accumulators                               *)
(* ------------------------------------------------------------------ *)

module Vc = Ptrng_measure.Variance_curve

let check_points_close ~tol name (expected : Vc.point array)
    (got : Vc.point array) =
  Alcotest.(check int) (name ^ ": point count") (Array.length expected)
    (Array.length got);
  Array.iteri
    (fun i (e : Vc.point) ->
      let g = got.(i) in
      Alcotest.(check int) (Printf.sprintf "%s: n[%d]" name i) e.Vc.n g.Vc.n;
      Alcotest.(check int) (Printf.sprintf "%s: neff[%d]" name i) e.Vc.neff
        g.Vc.neff;
      Testkit.check_rel (Printf.sprintf "%s: sigma2[%d]" name i) ~tol e.Vc.sigma2
        g.Vc.sigma2;
      Testkit.check_rel (Printf.sprintf "%s: stderr[%d]" name i) ~tol e.Vc.stderr
        g.Vc.stderr)
    expected

let jitter_fixture n =
  let pair = Pair.paper_pair () in
  let p1, p2 = Pair.simulate ~domains:1 (Testkit.rng ~seed:41L ()) pair ~n in
  let jitter = Array.init n (fun i -> p1.(i) -. p2.(i)) in
  (p1, p2, jitter)

let acc_tests =
  let f0 = Pair.paper_f0 in
  let ns = [| 1; 4; 16; 64; 256; 1024 |] in
  [
    Testkit.case "Jitter_acc == of_jitter (overlapping), every chunk size"
      (fun () ->
        let total = 40000 in
        let _, _, jitter = jitter_fixture total in
        let expected = Vc.of_jitter ~domains:1 ~f0 ~ns jitter in
        List.iter
          (fun size ->
            let acc = Vc.Jitter_acc.create ~f0 ns in
            let pos = ref 0 in
            while !pos < total do
              let len = min size (total - !pos) in
              let buf = FA.init len (fun i -> jitter.(!pos + i)) in
              Vc.Jitter_acc.feed acc buf ~len;
              pos := !pos + len
            done;
            Alcotest.(check int) "total" total (Vc.Jitter_acc.total acc);
            check_points_close ~tol:1e-9
              (Printf.sprintf "chunk %d" size)
              expected
              (Vc.Jitter_acc.points acc))
          [ 1; 1000; 8192; 40000 ]);
    Testkit.case "Jitter_acc == of_jitter (non-overlapping)" (fun () ->
        let total = 40000 in
        let _, _, jitter = jitter_fixture total in
        let expected =
          Vc.of_jitter ~domains:1 ~overlapping:false ~f0 ~ns jitter
        in
        let acc = Vc.Jitter_acc.create ~overlapping:false ~f0 ns in
        let buf = FA.init total (fun i -> jitter.(i)) in
        Vc.Jitter_acc.feed acc buf ~len:total;
        check_points_close ~tol:1e-9 "points" expected
          (Vc.Jitter_acc.points acc));
    Testkit.case "Jitter_acc points are a snapshot, feeding continues"
      (fun () ->
        let total = 20000 in
        let _, _, jitter = jitter_fixture total in
        let acc = Vc.Jitter_acc.create ~f0 ns in
        let buf = FA.init total (fun i -> jitter.(i)) in
        Vc.Jitter_acc.feed acc buf ~len:10000;
        let early = Vc.Jitter_acc.points acc in
        Testkit.check_true "has early points" (Array.length early > 0);
        let tail = FA.init 10000 (fun i -> jitter.(10000 + i)) in
        Vc.Jitter_acc.feed acc tail ~len:10000;
        let expected = Vc.of_jitter ~domains:1 ~f0 ~ns jitter in
        check_points_close ~tol:1e-9 "final" expected
          (Vc.Jitter_acc.points acc));
    Testkit.case "Counter_acc == of_counters, every chunk size" (fun () ->
        let total = 40000 in
        let p1, p2, _ = jitter_fixture total in
        let edges1 = Osc.edges_of_periods p1 in
        let edges2 = Osc.edges_of_periods p2 in
        let expected = Vc.of_counters ~f0 ~ns edges1 edges2 in
        List.iter
          (fun size ->
            let acc = Vc.Counter_acc.create ~f0 ~ns in
            let pos = ref 0 in
            while !pos < total do
              let len = min size (total - !pos) in
              let b1 = FA.init len (fun i -> p1.(pos.contents + i)) in
              let b2 = FA.init len (fun i -> p2.(pos.contents + i)) in
              Vc.Counter_acc.feed acc ~p1:b1 ~p2:b2 ~len;
              pos := !pos + len
            done;
            check_points_close ~tol:1e-9
              (Printf.sprintf "chunk %d" size)
              expected
              (Vc.Counter_acc.points acc))
          [ 1; 1000; 8192; 40000 ]);
    Testkit.case "Counter_acc refuses feeding after points" (fun () ->
        let p1, p2, _ = jitter_fixture 4096 in
        let acc = Vc.Counter_acc.create ~f0 ~ns:[| 4 |] in
        let b1 = FA.init 4096 (fun i -> p1.(i)) in
        let b2 = FA.init 4096 (fun i -> p2.(i)) in
        Vc.Counter_acc.feed acc ~p1:b1 ~p2:b2 ~len:4096;
        let _ = Vc.Counter_acc.points acc in
        Alcotest.check_raises "finalized"
          (Invalid_argument "Counter_acc.feed: already finalized") (fun () ->
            Vc.Counter_acc.feed acc ~p1:b1 ~p2:b2 ~len:1));
  ]

(* ------------------------------------------------------------------ *)
(* FFT-path statistical validation                                     *)
(* ------------------------------------------------------------------ *)

module Fit = Ptrng_measure.Fit
module Allan = Ptrng_stats.Allan

let fftpath_tests =
  let f0 = 1e8 in
  (* Fit the paper's a N + b N^2 model to a synthetic white+flicker
     relative-jitter series whose flicker part comes from [flicker]. *)
  let fit_of ~white_seed ~sigma_th flicker =
    let g = Testkit.rng ~seed:white_seed () in
    let jitter =
      Array.map (fun fl -> (sigma_th *. Ptrng_prng.Gaussian.draw g) +. fl)
        flicker
    in
    let ns = Ptrng_measure.Variance_curve.log2_grid ~n_min:4 ~n_max:1024 in
    let pts = Ptrng_measure.Variance_curve.of_jitter ~domains:1 ~f0 ~ns jitter in
    Fit.fit ~f0 pts
  in
  [
    Testkit.case "overlap-add fitted (a, b) within 2 SE of the direct filter"
      (fun () ->
        (* Same truncated fractional-integration filter, two convolution
           engines: the streaming FFT overlap-add (Source.kasdin) and
           the O(taps)-per-sample direct form (Kasdin.stream_next), on
           independent input streams.  The fitted thermal and flicker
           coefficients must agree statistically. *)
        let n = 1 lsl 15 and taps = 2048 in
        let sigma_th = 1e-12 and sigma_w = 1e-12 in
        let fft_flicker =
          Testkit.source_samples
            (Source.kasdin ~taps ~block:2048 ~alpha:1.0 ~sigma_w ())
            (Testkit.rng ~seed:101L ()) n
        in
        let st =
          Kasdin.stream_create
            (Testkit.rng ~seed:303L ())
            ~alpha:1.0 ~sigma_w ~taps
        in
        let direct_flicker = Array.init n (fun _ -> Kasdin.stream_next st) in
        let ff = fit_of ~white_seed:202L ~sigma_th fft_flicker in
        let df = fit_of ~white_seed:404L ~sigma_th direct_flicker in
        let tol2 s1 s2 = 2.0 *. sqrt ((s1 *. s1) +. (s2 *. s2)) in
        Testkit.check_abs ~tol:(tol2 ff.Fit.a_se df.Fit.a_se) "a" df.Fit.a
          ff.Fit.a;
        Testkit.check_abs ~tol:(tol2 ff.Fit.b_se df.Fit.b_se) "b" df.Fit.b
          ff.Fit.b);
    Testkit.case "PSD slope of the streamed 1/f output is -1" (fun () ->
        let n = 1 lsl 16 in
        let x =
          Testkit.source_samples
            (Source.kasdin ~taps:4096 ~block:4096 ~alpha:1.0 ~sigma_w:1.0 ())
            (Testkit.rng ~seed:55L ()) n
        in
        let s = Ptrng_signal.Psd.welch ~seg_len:4096 ~fs:1.0 x in
        let slope, se = Slope.log_log_slope s ~f_lo:(8.0 /. 4096.0) ~f_hi:0.05 in
        Testkit.check_abs ~tol:(Float.max 0.15 (3.0 *. se)) "slope" (-1.0) slope);
    Testkit.case "Allan variance of streamed flicker FM is flat at 2 ln2 h-1"
      (fun () ->
        (* Source.flicker_fm calibrates sigma_w^2 = pi h_{-1}, putting
           the one-sided level at h_{-1}/f; flicker FM then has
           avar(tau) = 2 ln2 h_{-1}, independent of tau. *)
        let hm1 = 1.0 in
        let y =
          Testkit.source_samples
            (Source.flicker_fm ~taps:8192 ~block:4096 ~hm1 ())
            (Testkit.rng ~seed:77L ()) (1 lsl 16)
        in
        let expected = Allan.avar_flicker_fm ~hm1 in
        List.iter
          (fun m ->
            let v = Allan.avar_overlapping ~tau0:1.0 ~m y in
            Testkit.check_rel ~tol:0.3 (Printf.sprintf "m=%d" m) expected v)
          [ 4; 16; 64 ]);
  ]

let () =
  Alcotest.run "streaming"
    [
      ("fft", fft_tests);
      ("white", white_tests);
      ("voss", voss_tests);
      ("spectral", spectral_tests);
      ("spectral-blocks", spectral_block_tests);
      ("kasdin", kasdin_tests);
      ("fft-path", fftpath_tests);
      ("oscillator", oscillator_tests);
      ("golden", golden_tests);
      ("ero-trng", ero_trng_tests);
      ("accumulators", acc_tests);
    ]
