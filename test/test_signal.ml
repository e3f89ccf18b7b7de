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

module FA = Float.Array

let fa = FA.map_from_array Fun.id
let of_fa = FA.map_to_array Fun.id

(* Inverse DFT through the forward one: idft X = conj (dft (conj X)) / n. *)
let idft_via_dft fr fi =
  let n = Array.length fr in
  let inv = 1.0 /. float_of_int n in
  let br, bi = Fft.dft ~re:fr ~im:(Array.map Float.neg fi) in
  (Array.map (fun v -> v *. inv) br, Array.map (fun v -> -.v *. inv) bi)

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
        let re = FA.make n 0.0 and im = FA.make n 0.0 in
        FA.set re 0 1.0;
        Fft.forward_pow2 ~re ~im;
        FA.iter (fun v -> Testkit.check_abs ~tol:1e-12 "re" 1.0 v) re;
        FA.iter (fun v -> Testkit.check_abs ~tol:1e-12 "im" 0.0 v) im);
    Testkit.case "single tone lands in one bin" (fun () ->
        let n = 256 and k0 = 10 in
        let re =
          FA.init n (fun j -> cos (2.0 *. pi *. float_of_int (k0 * j) /. float_of_int n))
        in
        let im = FA.make n 0.0 in
        Fft.forward_pow2 ~re ~im;
        Testkit.check_abs ~tol:1e-9 "peak bin" (float_of_int n /. 2.0) (FA.get re k0);
        Testkit.check_abs ~tol:1e-9 "mirror bin" (float_of_int n /. 2.0)
          (FA.get re (n - k0));
        Testkit.check_abs ~tol:1e-9 "dc" 0.0 (FA.get re 0));
    Testkit.case "forward then inverse is identity" (fun () ->
        let n = 1024 in
        let x = random_signal n in
        let re = fa x and im = FA.make n 0.0 in
        Fft.forward_pow2 ~re ~im;
        Fft.inverse_pow2 ~re ~im;
        Testkit.check_abs ~tol:1e-10 "round trip" 0.0 (max_abs_diff (of_fa re) x));
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
        let br, _ = idft_via_dft fr fi in
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
        let re = fa x and im = FA.make n 0.0 in
        Fft.forward_pow2 ~re ~im;
        Fft.inverse_pow2 ~re ~im;
        Testkit.check_abs ~tol:1e-9 "round trip" 0.0 (max_abs_diff (of_fa re) x));
    Testkit.case "rejects mismatched arrays" (fun () ->
        Alcotest.check_raises "mismatch" (Invalid_argument "Fft: re/im length mismatch")
          (fun () -> Fft.forward_pow2 ~re:(FA.make 4 0.0) ~im:(FA.make 8 0.0));
        Alcotest.check_raises "dft mismatch" (Invalid_argument "Fft: re/im length mismatch")
          (fun () -> ignore (Fft.dft ~re:(Array.make 5 0.0) ~im:(Array.make 6 0.0))));
    Testkit.case "rejects non-pow2 in-place" (fun () ->
        Alcotest.check_raises "12 points"
          (Invalid_argument "Fft: length not a power of two")
          (fun () -> Fft.forward_pow2 ~re:(FA.make 12 0.0) ~im:(FA.make 12 0.0)));
  ]

(* The power-of-two core as it stood before the tiled permutation and
   the paired, blocked stages: one pairwise bit-reversal swap at a time,
   then one radix-2 stage per pass over the whole array, twiddles from
   the tables up to span 2^13 and from the anchored recurrence above.
   It is the bit-for-bit reference for the current core. *)
module Reference = struct
  let bit_reverse_permute re im =
    let n = FA.length re in
    let j = ref 0 in
    for i = 0 to n - 2 do
      if i < !j then begin
        let tr = FA.get re i in
        FA.set re i (FA.get re !j);
        FA.set re !j tr;
        let ti = FA.get im i in
        FA.set im i (FA.get im !j);
        FA.set im !j ti
      end;
      let bit = ref (n lsr 1) in
      while !j land !bit <> 0 do
        j := !j lxor !bit;
        bit := !bit lsr 1
      done;
      j := !j lor !bit
    done

  let table_max = 1 lsl 13

  let twiddles sign =
    let t = FA.create (2 * (table_max - 1)) in
    let len = ref 2 in
    while !len <= table_max do
      let half = !len / 2 in
      let ang = sign *. 2.0 *. Float.pi /. float_of_int !len in
      let step_r = cos ang and step_i = sin ang in
      let wr = ref 1.0 and wi = ref 0.0 in
      for k = 0 to half - 1 do
        if k land 63 = 0 then begin
          let a = ang *. float_of_int k in
          wr := cos a;
          wi := sin a
        end;
        let j = 2 * (half - 1 + k) in
        FA.set t j !wr;
        FA.set t (j + 1) !wi;
        let nwr = (!wr *. step_r) -. (!wi *. step_i) in
        wi := (!wr *. step_i) +. (!wi *. step_r);
        wr := nwr
      done;
      len := !len * 2
    done;
    t

  let forward_twiddles = twiddles (-1.0)
  let inverse_twiddles = twiddles 1.0

  let butterfly re im p q wr wi =
    let rq = FA.get re q and iq = FA.get im q in
    let vr = (rq *. wr) -. (iq *. wi) in
    let vi = (rq *. wi) +. (iq *. wr) in
    let rp = FA.get re p and ip = FA.get im p in
    FA.set re q (rp -. vr);
    FA.set im q (ip -. vi);
    FA.set re p (rp +. vr);
    FA.set im p (ip +. vi)

  let stage_table re im n len t =
    let half = len / 2 in
    let base = 2 * (half - 1) in
    let i = ref 0 in
    while !i < n do
      for k = 0 to half - 1 do
        let j = base + (2 * k) in
        butterfly re im (!i + k) (!i + k + half) (FA.get t j) (FA.get t (j + 1))
      done;
      i := !i + len
    done

  let stage_direct re im n len sign =
    let half = len / 2 in
    let ang = sign *. 2.0 *. Float.pi /. float_of_int len in
    let step_r = cos ang and step_i = sin ang in
    let i = ref 0 in
    while !i < n do
      let wr = ref 1.0 and wi = ref 0.0 in
      for k = 0 to half - 1 do
        if k land 63 = 0 then begin
          let a = ang *. float_of_int k in
          wr := cos a;
          wi := sin a
        end;
        butterfly re im (!i + k) (!i + k + half) !wr !wi;
        let nwr = (!wr *. step_r) -. (!wi *. step_i) in
        wi := (!wr *. step_i) +. (!wi *. step_r);
        wr := nwr
      done;
      i := !i + len
    done

  let transform ~sign re im =
    let n = FA.length re in
    if n > 1 then begin
      bit_reverse_permute re im;
      let t = if sign < 0.0 then forward_twiddles else inverse_twiddles in
      let len = ref 2 in
      while !len <= n do
        if !len <= table_max then stage_table re im n !len t
        else stage_direct re im n !len sign;
        len := !len * 2
      done
    end

  let forward ~re ~im = transform ~sign:(-1.0) re im

  let inverse ~re ~im =
    transform ~sign:1.0 re im;
    let inv = 1.0 /. float_of_int (FA.length re) in
    FA.iteri (fun i v -> FA.set re i (v *. inv)) re;
    FA.iteri (fun i v -> FA.set im i (v *. inv)) im
end

let check_bits name expected got =
  FA.iteri
    (fun i e ->
      let g = FA.get got i in
      if Int64.bits_of_float e <> Int64.bits_of_float g then
        Alcotest.failf "%s: element %d is %h, reference %h" name i g e)
    expected

(* Forward transform of seeded data, then inverse of the result, by the
   core and by [Reference], bit for bit.  [real] zeroes the imaginary
   input, as spectral synthesis leaves many signed zeros about. *)
let check_core ~real log2n =
  let n = 1 lsl log2n in
  let rng = Testkit.rng ~seed:(Int64.of_int (1000 + log2n)) () in
  let re = FA.init n (fun _ -> Ptrng_prng.Rng.float rng -. 0.5) in
  let im =
    if real then FA.make n 0.0
    else FA.init n (fun _ -> Ptrng_prng.Rng.float rng -. 0.5)
  in
  let rre = FA.copy re and rim = FA.copy im in
  let name dir = Printf.sprintf "2^%d %s%s" log2n dir (if real then " (real)" else "") in
  Fft.forward_pow2 ~re ~im;
  Reference.forward ~re:rre ~im:rim;
  check_bits (name "forward re") rre re;
  check_bits (name "forward im") rim im;
  Fft.inverse_pow2 ~re ~im;
  Reference.inverse ~re:rre ~im:rim;
  check_bits (name "inverse re") rre re;
  check_bits (name "inverse im") rim im

(* [Fft.inverse_hermitian] on bins 0 .. n/2 of a seeded random
   Hermitian spectrum against the real part of [Reference.inverse] on
   the whole spectrum: every sample within 1e-12 of the signal's rms.
   The slots it must not read (re above n/2, the imaginary parts of the
   DC and Nyquist bins) hold NaN. *)
let check_hermitian log2n =
  let n = 1 lsl log2n and h = (1 lsl log2n) / 2 in
  let rng = Testkit.rng ~seed:(Int64.of_int (2000 + log2n)) () in
  let u () = Ptrng_prng.Rng.float rng -. 0.5 in
  let fr = FA.make n 0.0 and fi = FA.make n 0.0 in
  for k = 0 to h do
    let a = u () and b = if k = 0 || k = h then 0.0 else u () in
    FA.set fr k a;
    FA.set fi k b;
    if k > 0 && k < h then begin
      FA.set fr (n - k) a;
      FA.set fi (n - k) (-.b)
    end
  done;
  let re = FA.init n (fun k -> if k <= h then FA.get fr k else nan) in
  let im = FA.init (h + 1) (fun k -> if k = 0 || k = h then nan else FA.get fi k) in
  Fft.inverse_hermitian ~re ~im;
  Reference.inverse ~re:fr ~im:fi;
  let rms = sqrt (FA.fold_left (fun s v -> s +. (v *. v)) 0.0 fr /. float_of_int n) in
  FA.iteri
    (fun i e ->
      let g = FA.get re i in
      if not (Float.abs (g -. e) <= 1e-12 *. rms) then
        Alcotest.failf "2^%d: sample %d is %h, reference %h" log2n i g e)
    fr

let naive_reverse log2n i =
  let r = ref 0 in
  for b = 0 to log2n - 1 do
    if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (log2n - 1 - b))
  done;
  !r

let core_tests =
  [
    (* 2^0 .. 2^5 sit below the tiling threshold; 2^6 .. 2^13 run only
       tabulated stages (an odd count of them leaves the span-2 stage
       unpaired); 2^14 .. 2^20 add 1 .. 7 direct stages, an odd count
       leaving the first unpaired. *)
    Testkit.case "pow2 core == reference, bit for bit, 2^0 .. 2^20" (fun () ->
        for log2n = 0 to 20 do
          check_core ~real:false log2n;
          check_core ~real:true log2n
        done);
    Testkit.case "pow2 core == reference, bit for bit, 2^22" (fun () ->
        check_core ~real:false 22);
    (* 2^13 is the last split step with tabulated twiddles, 2^14 the
       first on the anchored recurrence. *)
    Testkit.case "inverse_hermitian == real part of the reference, 2^0 .. 2^20"
      (fun () ->
        for log2n = 0 to 20 do
          check_hermitian log2n
        done);
    Testkit.case "inverse_hermitian rejects bad lengths" (fun () ->
        Alcotest.check_raises "12 points" (Invalid_argument "Fft: length not a power of two")
          (fun () -> Fft.inverse_hermitian ~re:(FA.make 12 0.0) ~im:(FA.make 7 0.0));
        Alcotest.check_raises "im of n points"
          (Invalid_argument "Fft.inverse_hermitian: im length <> n/2 + 1")
          (fun () -> Fft.inverse_hermitian ~re:(FA.make 16 0.0) ~im:(FA.make 16 0.0)));
    Testkit.case "tiled bit reversal == naive index reversal" (fun () ->
        for log2n = 0 to 18 do
          let n = 1 lsl log2n in
          let x = FA.init n float_of_int in
          Fft.bit_reverse x log2n;
          for i = 0 to n - 1 do
            let want = naive_reverse log2n i in
            if FA.get x i <> float_of_int want then
              Alcotest.failf "2^%d: element %d holds %g, want %d" log2n i (FA.get x i)
                want
          done
        done);
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
        let g = Testkit.rng () in
        let sigma = 0.7 and fs = 1000.0 in
        let x = Array.init (1 lsl 16) (fun _ -> sigma *. Ptrng_prng.Gaussian.draw g) in
        let s = Psd.welch ~seg_len:1024 ~fs x in
        let level = Psd.band_mean s ~f_lo:(fs /. 20.0) ~f_hi:(fs /. 2.2) in
        Testkit.check_rel ~tol:0.05 "level" (2.0 *. sigma *. sigma /. fs) level);
    Testkit.case "total power approximates variance" (fun () ->
        let g = Testkit.rng () in
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
        let g = Testkit.rng () in
        let x = Array.init 50000 (fun _ -> Ptrng_prng.Gaussian.draw g) in
        let r = Autocorr.acf ~max_lag:20 x in
        Testkit.check_rel ~tol:1e-12 "lag 0" 1.0 r.(0);
        let bound = Autocorr.confidence_bound ~n:50000 *. 2.0 in
        for k = 1 to 20 do
          Testkit.check_abs ~tol:bound "white lag" 0.0 r.(k)
        done);
    Testkit.case "AR(1) ACF decays geometrically" (fun () ->
        let g = Testkit.rng () in
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
    Testkit.case "remove_mean zeroes the mean" (fun () ->
        let x = random_signal 1000 in
        let y = Filter.remove_mean x in
        Testkit.check_abs ~tol:1e-12 "mean" 0.0 (Ptrng_stats.Descriptive.mean y));
  ]

let () =
  Alcotest.run "ptrng_signal"
    [
      ("fft", fft_tests);
      ("fft core", core_tests);
      ("window", window_tests);
      ("psd", psd_tests);
      ("autocorr", autocorr_tests);
      ("filter", filter_tests);
    ]
