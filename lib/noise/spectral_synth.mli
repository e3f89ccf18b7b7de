(** Gaussian noise with a power-law target PSD, synthesised in the
    frequency domain.

    A Hermitian spectrum with independent complex-Gaussian bins whose
    expected power matches the target density is inverse-transformed
    into a real time series.  Only its half, bins 0 .. n/2, is built:
    the bins above n/2 are their conjugates, and
    {!Ptrng_signal.Fft.inverse_hermitian} turns the half-spectrum into
    the n real samples with an n/2-point complex transform.  The result
    agrees with the full spectrum's n-point inverse to rounding (within
    1e-12 of the block rms, test_noise), not bit for bit.  The output is a stationary Gaussian
    process with (circulant) covariance matching the target PSD exactly
    at the FFT grid frequencies; statistics that probe lags beyond
    ~n/8 samples feel the periodicity, so callers should generate
    blocks comfortably longer than the longest correlation they study.
    This is the fast block generator behind the oscillator simulator;
    {!Kasdin} and {!Voss} cross-validate it.

    The target is given as data, the one-sided fractional-frequency
    coefficients of {!Psd_model.frac_freq}: S(f) = h0 + h_{-1}/f,
    evaluated inline per bin, so a synthesis allocates nothing per bin.
    Random-walk FM is integrated by the oscillator itself, so a nonzero
    [hm2] is rejected.

    Bins are filled in fixed-size chunks, one child generator per
    chunk, all on the calling domain. *)

val generate :
  Ptrng_prng.Rng.t ->
  psd:Psd_model.frac_freq ->
  fs:float ->
  int ->
  float array
(** [generate rng ~psd ~fs n] returns [n] samples ([n] a power of two)
    whose one-sided PSD matches [h0 + hm1/f] (evaluated at [k fs / n],
    k = 1 .. n/2; the DC bin is forced to zero, so the output has zero
    mean over the block).  [rng] advances by exactly one root draw.
    @raise Invalid_argument if [n] is not a power of two, [fs <= 0] or
    [psd.hm2 <> 0]. *)

val generate_with_root :
  root:int64 ->
  psd:Psd_model.frac_freq ->
  fs:float ->
  int ->
  Float.Array.t
(** [generate_with_root ~root ~psd ~fs n] is
    {!generate} with the root draw supplied explicitly instead of taken
    from a live generator — the resynthesizable form behind {!Source}:
    any block of a stream is a pure function of its recorded root.
    The block is returned as the unboxed buffer the inverse FFT ran
    in; [generate rng] is exactly [generate_with_root ~root:(bits64
    rng)] copied into a [float array].  The imaginary half-spectrum
    (n/2 + 1 floats) and the draw buffer it works in are allocated per
    call and dropped, so the caller holds only the block.  @raise Invalid_argument as
    {!generate}. *)

val amplitudes : psd:Psd_model.frac_freq -> fs:float -> int -> Float.Array.t
(** [amplitudes ~psd ~fs n] is the amplitude spectrum of an [n]-point
    block: [n/2] floats, the amplitude of bin k (k = 1 .. n/2) at index
    k - 1, computed by the same expression {!generate_with_root}
    evaluates per bin.  It depends only on [psd], [fs] and [n], so a
    stream that synthesizes many blocks builds it once.
    @raise Invalid_argument as {!generate}. *)

type scratch
(** Working storage of an [n]-point synthesis besides the block itself:
    the imaginary parts of bins 0 .. n/2 ([n]/2 + 1 floats) and one bin
    chunk's draw buffer (at most 8192 floats). *)

val scratch : int -> scratch
(** [scratch n] allocates the working storage {!generate_into} reuses
    for every [n]-point block. *)

val generate_into :
  root:int64 ->
  amplitudes:Float.Array.t ->
  scratch:scratch ->
  Float.Array.t ->
  unit
(** [generate_into ~root ~amplitudes ~scratch re] overwrites all of
    [re] with the block {!generate_with_root} returns for the same
    root, bit for bit, taking bin amplitudes from [amplitudes] (built
    by {!amplitudes} for [Float.Array.length re]) instead of evaluating
    the PSD, and working in [re] and [scratch] instead of allocating:
    a block rebuilt this way allocates no float array.  Both run one
    synthesis routine; only the amplitude source and the storage
    differ.
    @raise Invalid_argument if the length of [re] is not a power of
    two, [amplitudes] does not hold half as many floats, or [scratch]
    was built for another length. *)

val generate_many :
  ?domains:int ->
  Ptrng_prng.Rng.t ->
  psd:Psd_model.frac_freq ->
  fs:float ->
  count:int ->
  int ->
  float array array
(** [generate_many rng ~psd ~fs ~count n] synthesizes [count]
    independent blocks, one derived generator per block, blocks
    distributed over a {!Ptrng_exec.Pool} — the Monte-Carlo
    bulk-synthesis path, bit-identical for every [?domains] value.
    @raise Invalid_argument if [count < 0] (and as {!generate}, also
    when [count = 0]). *)
