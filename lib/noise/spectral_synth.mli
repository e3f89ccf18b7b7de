(** Gaussian noise with an arbitrary target PSD, synthesised in the
    frequency domain.

    A Hermitian spectrum with independent complex-Gaussian bins whose
    expected power matches the target density is inverse-transformed
    into a real time series.  The output is a stationary Gaussian
    process with (circulant) covariance matching the target PSD exactly
    at the FFT grid frequencies; statistics that probe lags beyond
    ~n/8 samples feel the periodicity, so callers should generate
    blocks comfortably longer than the longest correlation they study.
    This is the fast block generator behind the oscillator simulator;
    {!Kasdin} and {!Voss} cross-validate it.

    Bin filling is chunked over a {!Ptrng_exec.Pool} with one child
    generator per fixed-size chunk, so for a given seed the output is
    bit-identical for every [?domains] value (including 1). *)

val generate :
  ?domains:int ->
  Ptrng_prng.Rng.t ->
  psd:(float -> float) ->
  fs:float ->
  int ->
  float array
(** [generate rng ~psd ~fs n] returns [n] samples ([n] a power of two)
    whose one-sided PSD matches [psd] (evaluated at [k fs / n],
    k = 1 .. n/2; the DC bin is forced to zero, so the output has zero
    mean over the block).  [rng] advances by exactly one root draw
    regardless of [?domains].  @raise Invalid_argument if [n] is not a
    power of two or [fs <= 0]. *)

val generate_with_root :
  domains:int ->
  backend:Ptrng_prng.Rng.backend ->
  root:int64 ->
  psd:(float -> float) ->
  fs:float ->
  int ->
  Float.Array.t
(** [generate_with_root ~domains ~backend ~root ~psd ~fs n] is
    {!generate} with the root draw supplied explicitly instead of taken
    from a live generator — the resynthesizable form behind {!Source}:
    any block of a stream is a pure function of its recorded root.
    [domains] is a required, already-resolved worker count (the
    streaming hot path passes [~domains:1]; an optional argument here
    would allocate a [Some] per block).  The output is bit-identical
    for every [domains] value.  The block is returned as the unboxed
    buffer the inverse FFT ran in; [generate rng] is exactly
    [generate_with_root ~domains:(Pool.resolve ()) ~backend:(backend
    rng) ~root:(bits64 rng)] copied into a [float array].  @raise Invalid_argument as
    {!generate}. *)

val amplitudes : psd:(float -> float) -> fs:float -> int -> Float.Array.t
(** [amplitudes ~psd ~fs n] is the amplitude spectrum of an [n]-point
    block: [n/2] floats, the amplitude of bin k (k = 1 .. n/2) at index
    k - 1, computed by the same expression {!generate_with_root}
    evaluates per bin.  It depends only on [psd], [fs] and [n], so a
    stream that synthesizes many blocks builds it once. *)

val generate_into :
  domains:int ->
  backend:Ptrng_prng.Rng.backend ->
  root:int64 ->
  amplitudes:Float.Array.t ->
  Float.Array.t ->
  unit
(** [generate_into ~domains ~backend ~root ~amplitudes re] overwrites
    all of [re] with the block {!generate_with_root} returns for the
    same root, bit for bit, taking bin amplitudes from [amplitudes]
    (built by {!amplitudes} for [Float.Array.length re]) instead of
    calling the PSD, and reusing [re] instead of allocating it.  Both
    run one synthesis routine; only the amplitude source differs.
    @raise Invalid_argument if the length of [re] is not a power of two
    or [amplitudes] does not hold half as many floats. *)

val generate_frac_freq :
  ?domains:int ->
  Ptrng_prng.Rng.t ->
  model:Psd_model.frac_freq ->
  fs:float ->
  int ->
  float array
(** Fractional-frequency noise for an oscillator: white FM is added in
    the time domain (exactly white, no circularity), flicker and
    random-walk FM come from {!generate}. *)

val generate_many :
  ?domains:int ->
  Ptrng_prng.Rng.t ->
  psd:(float -> float) ->
  fs:float ->
  count:int ->
  int ->
  float array array
(** [generate_many rng ~psd ~fs ~count n] synthesizes [count]
    independent blocks, one derived generator per block, blocks
    distributed over the pool — the Monte-Carlo bulk-synthesis path.
    @raise Invalid_argument if [count < 0] (and as {!generate}). *)
