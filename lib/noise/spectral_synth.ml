module Rng = Ptrng_prng.Rng
module FA = Float.Array

let samples_total =
  Ptrng_telemetry.Registry.Counter.v
    ~help:"Noise samples synthesized by frequency-domain shaping."
    "ptrng_noise_spectral_samples_total"

(* Spectrum bins are filled in fixed-size chunks, each from a child
   generator derived from one root draw (chunk [ci] draws from child
   [ci]); the chunk size is part of the output contract. *)
let bin_chunk = 4096

let check ~fn (psd : Psd_model.frac_freq) ~fs n =
  if not (Ptrng_signal.Fft.is_pow2 n) then
    invalid_arg (fn ^ ": n must be a power of two");
  if fs <= 0.0 then invalid_arg (fn ^ ": fs <= 0");
  if psd.hm2 <> 0.0 then invalid_arg (fn ^ ": hm2 <> 0")

(* Amplitude of bin k (1 <= k <= n/2) of an n-point block, for the
   one-sided PSD S(f) = h0 + h_{-1}/f evaluated inline.
   E[|X_k|^2] = S(f_k) fs n / 2 for interior bins of an unscaled DFT,
   split between the real and imaginary draws; the real Nyquist bin
   carries the full expected power.  [inv_n] is 1/n, exact for a power
   of two, so each product below rounds as the quotient it replaces. *)
let[@inline] amplitude (psd : Psd_model.frac_freq) ~fs ~inv_n n k =
  if k = n / 2 then
    let s = psd.h0 +. (psd.hm1 /. (fs *. 0.5)) in
    sqrt (s *. fs *. float_of_int n *. 0.5)
  else
    let f = float_of_int k *. fs *. inv_n in
    sqrt ((psd.h0 +. (psd.hm1 /. f)) *. fs *. float_of_int n *. 0.25)

let amplitudes ~psd ~fs n =
  check ~fn:"Spectral_synth.amplitudes" psd ~fs n;
  let inv_n = 1.0 /. float_of_int n in
  let t = FA.create (n / 2) in
  for k = 1 to n / 2 do
    FA.unsafe_set t (k - 1) (amplitude psd ~fs ~inv_n n k)
  done;
  t

(* Where [synthesize] takes bin amplitudes from: the PSD coefficients,
   evaluated per bin, or a table built by [amplitudes]. *)
type amps = Coeffs of Psd_model.frac_freq * float | Table of FA.t

let[@inline] amp_at amps ~inv_n n k =
  match amps with
  | Coeffs (psd, fs) -> amplitude psd ~fs ~inv_n n k
  | Table t -> FA.unsafe_get t (k - 1)

(* Working storage of an n-point synthesis besides the block: the
   imaginary parts of bins 0 .. n/2, which the inverse transform
   overwrites, and one bin chunk's (a, b) draws. *)
type scratch = { im : FA.t; draws : FA.t }

let scratch_im n = (n / 2) + 1

let scratch n =
  let nbins = max 0 ((n / 2) - 1) in
  (* At least one slot: the Nyquist draw goes through it too. *)
  {
    im = FA.create (scratch_im n);
    draws = FA.create (max 1 (2 * min bin_chunk nbins));
  }

(* The one synthesis routine: overwrites all of [re] (length n) with the
   block for [root], on the calling domain, using [im] and [draws] of
   [s] as working storage.  Spreading the bin chunks over the domain
   pool did not pay (under 1.1x on two domains for a 2^22 block,
   docs/PARALLELISM.md), and every executable reaches this on one
   domain. *)
let synthesize ~root amps s re =
  let n = FA.length re in
  Ptrng_telemetry.Registry.Counter.add samples_total n;
  let half = n / 2 and inv_n = 1.0 /. float_of_int n in
  let im = s.im and draws = s.draws in
  (* The bin loop writes bins 1 .. n/2 - 1 of [re] and [im]; the DC and
     Nyquist bins are real, so their [im] slots are never read. *)
  let nbins = half - 1 in
  let nchunks = (nbins + bin_chunk - 1) / bin_chunk in
  (* The DC bin stays zero; [re] may still hold an earlier block. *)
  FA.set re 0 0.0;
  for ci = 0 to nchunks - 1 do
    let child = Rng.child ~root ~index:ci () in
    let k_lo = 1 + (ci * bin_chunk) in
    let k_hi = min (half - 1) (k_lo + bin_chunk - 1) in
    let bins = k_hi - k_lo + 1 in
    (* One bulk draw of the chunk's (a, b) pairs: same child stream,
       same draw order as the former per-bin pair of draws, but
       allocation-free (Gaussian.fill_fa). *)
    Ptrng_prng.Gaussian.fill_fa child ~sigma:1.0 draws ~pos:0 ~len:(2 * bins);
    for k = k_lo to k_hi do
      let amp = amp_at amps ~inv_n n k in
      let j = 2 * (k - k_lo) in
      let a = amp *. FA.unsafe_get draws j in
      let b = amp *. FA.unsafe_get draws (j + 1) in
      FA.set re k a;
      FA.set im k b
    done
  done;
  (* The Nyquist bin is real; its draw comes from a dedicated child
     stream beyond the interior chunk indices, through the same bulk
     sampler (one unit draw: the value [Gaussian.draw] returns). *)
  if half >= 1 && half < n then begin
    let child = Rng.child ~root ~index:(nchunks + 1) () in
    Ptrng_prng.Gaussian.fill_fa child ~sigma:1.0 draws ~pos:0 ~len:1;
    FA.set re half (amp_at amps ~inv_n n half *. FA.unsafe_get draws 0)
  end;
  (* Bins n/2 + 1 .. n - 1 are the conjugates of the ones built above:
     the real inverse reads only bins 0 .. n/2 and applies the 1/n
     scaling, so a forward transform of the result returns the
     Hermitian spectrum to rounding. *)
  Ptrng_signal.Fft.inverse_hermitian ~re ~im

let generate_with_root ~root ~psd ~fs n =
  check ~fn:"Spectral_synth.generate" psd ~fs n;
  (* [synthesize] writes every slot of [re]. *)
  let re = FA.create n in
  synthesize ~root (Coeffs (psd, fs)) (scratch n) re;
  re

let generate_into ~root ~amplitudes ~scratch re =
  let n = FA.length re in
  if not (Ptrng_signal.Fft.is_pow2 n) then
    invalid_arg "Spectral_synth.generate_into: length not a power of two";
  if FA.length amplitudes <> n / 2 then
    invalid_arg "Spectral_synth.generate_into: amplitudes length <> n/2";
  if FA.length scratch.im <> scratch_im n then
    invalid_arg "Spectral_synth.generate_into: scratch not built for n";
  synthesize ~root (Table amplitudes) scratch re

let generate rng ~psd ~fs n =
  let root = Rng.bits64 rng in
  FA.map_to_array Fun.id (generate_with_root ~root ~psd ~fs n)

let generate_many ?domains rng ~psd ~fs ~count n =
  if count < 0 then invalid_arg "Spectral_synth.generate_many: count < 0";
  check ~fn:"Spectral_synth.generate_many" psd ~fs n;
  Ptrng_exec.Pool.parallel_map_streams ?domains ~rng
    (fun _ child -> generate child ~psd ~fs n)
    count
