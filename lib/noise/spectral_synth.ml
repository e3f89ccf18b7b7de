module Pool = Ptrng_exec.Pool
module Rng = Ptrng_prng.Rng

let samples_total =
  Ptrng_telemetry.Registry.Counter.v
    ~help:"Noise samples synthesized by frequency-domain shaping."
    "ptrng_noise_spectral_samples_total"

(* Spectrum bins are filled in fixed-size chunks, each from a child
   generator derived from one root draw, so the synthesized block is
   bit-identical for every domain count (see docs/PARALLELISM.md). *)
let bin_chunk = 4096

(* [domains] is a required resolved count (no option at hot call
   sites): the streaming resynthesis path passes [~domains:1]
   directly, and [generate] resolves its own [?domains]. *)
let generate_with_root ~domains ~backend ~root ~psd ~fs n =
  if not (Ptrng_signal.Fft.is_pow2 n) then
    invalid_arg "Spectral_synth.generate: n must be a power of two";
  if fs <= 0.0 then invalid_arg "Spectral_synth.generate: fs <= 0";
  Ptrng_telemetry.Registry.Counter.add samples_total n;
  let re = Float.Array.make n 0.0 and im = Float.Array.make n 0.0 in
  let half = n / 2 in
  (* E[|X_k|^2] = S(f_k) fs n / 2 for interior bins of an unscaled DFT. *)
  let nbins = half - 1 in
  let nchunks = (nbins + bin_chunk - 1) / bin_chunk in
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
        let draws = Float.Array.create (2 * bins) in
        Ptrng_prng.Gaussian.fill_fa g ~sigma:1.0 draws ~pos:0 ~len:(2 * bins);
        for k = k_lo to k_hi do
          let f = float_of_int k *. fs /. float_of_int n in
          let amp = sqrt (psd f *. fs *. float_of_int n /. 4.0) in
          let j = 2 * (k - k_lo) in
          let a = amp *. Float.Array.unsafe_get draws j in
          let b = amp *. Float.Array.unsafe_get draws (j + 1) in
          Float.Array.set re k a;
          Float.Array.set im k b;
          Float.Array.set re (n - k) a;
          Float.Array.set im (n - k) (-.b)
        done);
  (* Nyquist bin is real with the full expected power; its draw comes
     from a dedicated child stream beyond the interior chunk indices. *)
  if half >= 1 && half < n then begin
    let child = Rng.child ~backend ~root ~index:(nchunks + 1) () in
    let g = Ptrng_prng.Gaussian.create child in
    let f = fs /. 2.0 in
    Float.Array.set re half
      (sqrt (psd f *. fs *. float_of_int n /. 2.0) *. Ptrng_prng.Gaussian.draw g)
  end;
  (* inverse_pow2 applies the 1/n scaling, so a forward transform of the
     result returns exactly the spectrum built above. *)
  Ptrng_signal.Fft.inverse_pow2 ~re ~im;
  re

let generate ?domains rng ~psd ~fs n =
  let root = Rng.bits64 rng in
  let backend = Rng.backend rng in
  Float.Array.map_to_array Fun.id
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
