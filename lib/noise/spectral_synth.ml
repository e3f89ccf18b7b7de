module Pool = Ptrng_exec.Pool
module Rng = Ptrng_prng.Rng
module FA = Float.Array

let samples_total =
  Ptrng_telemetry.Registry.Counter.v
    ~help:"Noise samples synthesized by frequency-domain shaping."
    "ptrng_noise_spectral_samples_total"

(* Spectrum bins are filled in fixed-size chunks, each from a child
   generator derived from one root draw, so the synthesized block is
   bit-identical for every domain count (see docs/PARALLELISM.md). *)
let bin_chunk = 4096

(* Amplitude of bin k (1 <= k <= n/2) of an n-point block.
   E[|X_k|^2] = S(f_k) fs n / 2 for interior bins of an unscaled DFT,
   split between the real and imaginary draws; the real Nyquist bin
   carries the full expected power. *)
let[@inline] amplitude ~psd ~fs n k =
  if k = n / 2 then sqrt (psd (fs /. 2.0) *. fs *. float_of_int n /. 2.0)
  else
    let f = float_of_int k *. fs /. float_of_int n in
    sqrt (psd f *. fs *. float_of_int n /. 4.0)

let amplitudes ~psd ~fs n =
  FA.init (n / 2) (fun i -> amplitude ~psd ~fs n (i + 1))

(* Where [synthesize] takes bin amplitudes from: the target PSD,
   evaluated per bin, or a table built by [amplitudes]. *)
type amps = Psd of (float -> float) * float | Table of FA.t

let[@inline] amp_at amps n k =
  match amps with
  | Psd (psd, fs) -> amplitude ~psd ~fs n k
  | Table t -> FA.unsafe_get t (k - 1)

(* The one synthesis routine: overwrites all of [re] (length n) with the
   block for [root].  [domains] is a required resolved count (no option
   at hot call sites): the streaming resynthesis path passes
   [~domains:1] directly, and [generate] resolves its own [?domains]. *)
let synthesize ~domains ~backend ~root amps re =
  let n = FA.length re in
  Ptrng_telemetry.Registry.Counter.add samples_total n;
  let im = FA.make n 0.0 in
  let half = n / 2 in
  let nbins = half - 1 in
  let nchunks = (nbins + bin_chunk - 1) / bin_chunk in
  (* The DC bin stays zero; [re] may still hold an earlier block. *)
  FA.set re 0 0.0;
  if nbins > 0 then
    Pool.run_tasks ~domains ~n_tasks:nchunks (fun ci ->
        let child = Rng.child ~backend ~root ~index:ci () in
        let g = Ptrng_prng.Gaussian.create child in
        let k_lo = 1 + (ci * bin_chunk) in
        let k_hi = min (half - 1) (k_lo + bin_chunk - 1) in
        let bins = k_hi - k_lo + 1 in
        (* One bulk draw of the chunk's (a, b) pairs: same child stream,
           same draw order as the former per-bin pair of draws, but
           allocation-free (Gaussian.fill_fa). *)
        let draws = FA.create (2 * bins) in
        Ptrng_prng.Gaussian.fill_fa g ~sigma:1.0 draws ~pos:0 ~len:(2 * bins);
        for k = k_lo to k_hi do
          let amp = amp_at amps n k in
          let j = 2 * (k - k_lo) in
          let a = amp *. FA.unsafe_get draws j in
          let b = amp *. FA.unsafe_get draws (j + 1) in
          FA.set re k a;
          FA.set im k b;
          FA.set re (n - k) a;
          FA.set im (n - k) (-.b)
        done);
  (* The Nyquist bin is real; its draw comes from a dedicated child
     stream beyond the interior chunk indices. *)
  if half >= 1 && half < n then begin
    let child = Rng.child ~backend ~root ~index:(nchunks + 1) () in
    let g = Ptrng_prng.Gaussian.create child in
    FA.set re half (amp_at amps n half *. Ptrng_prng.Gaussian.draw g)
  end;
  (* inverse_pow2 applies the 1/n scaling, so a forward transform of the
     result returns exactly the spectrum built above. *)
  Ptrng_signal.Fft.inverse_pow2 ~re ~im

let generate_with_root ~domains ~backend ~root ~psd ~fs n =
  if not (Ptrng_signal.Fft.is_pow2 n) then
    invalid_arg "Spectral_synth.generate: n must be a power of two";
  if fs <= 0.0 then invalid_arg "Spectral_synth.generate: fs <= 0";
  let re = FA.make n 0.0 in
  synthesize ~domains ~backend ~root (Psd (psd, fs)) re;
  re

let generate_into ~domains ~backend ~root ~amplitudes re =
  let n = FA.length re in
  if not (Ptrng_signal.Fft.is_pow2 n) then
    invalid_arg "Spectral_synth.generate_into: length not a power of two";
  if FA.length amplitudes <> n / 2 then
    invalid_arg "Spectral_synth.generate_into: amplitudes length <> n/2";
  synthesize ~domains ~backend ~root (Table amplitudes) re

let generate ?domains rng ~psd ~fs n =
  let root = Rng.bits64 rng in
  let backend = Rng.backend rng in
  FA.map_to_array Fun.id
    (generate_with_root ~domains:(Pool.resolve ?domains ()) ~backend ~root ~psd
       ~fs n)

let generate_frac_freq ?domains rng ~model ~fs n =
  let open Psd_model in
  let y =
    if model.h0 > 0.0 then begin
      let sigma = sqrt (White.variance_of_level ~level:model.h0 ~fs) in
      Pool.parallel_init_floats ?domains ~rng
        ~fill:(fun child ~offset ~len out ->
          let g = Ptrng_prng.Gaussian.create child in
          for i = offset to offset + len - 1 do
            out.(i) <- sigma *. Ptrng_prng.Gaussian.draw g
          done)
        n
    end
    else Array.make n 0.0
  in
  if model.hm1 > 0.0 || model.hm2 > 0.0 then begin
    let colored_psd f = (model.hm1 /. f) +. (model.hm2 /. (f *. f)) in
    let colored = generate ?domains rng ~psd:colored_psd ~fs n in
    for i = 0 to n - 1 do
      y.(i) <- y.(i) +. colored.(i)
    done
  end;
  y

let generate_many ?domains rng ~psd ~fs ~count n =
  if count < 0 then invalid_arg "Spectral_synth.generate_many: count < 0";
  Pool.parallel_map_streams ?domains ~rng
    (fun _ child -> generate child ~psd ~fs n)
    count
