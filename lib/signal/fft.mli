(** Fast Fourier transforms on split real/imaginary buffers, and an
    overlap-add block convolver for streaming FIR filtering.

    Power-of-two lengths use an in-place radix-2 Cooley–Tukey over
    unboxed [Float.Array.t] buffers owned by the caller, so a
    transform allocates nothing.  A tiled bit-reversal permutation
    swaps 8x8 tiles of cache lines; the butterfly stages then run two
    per pass, every butterfly doing the float operations of one stage
    per pass on the same inputs, so the output is bitwise the same.  The
    stages of span up to 2^13 run one 2^13-point block at a time, with
    twiddle factors from read-only tables filled once per process
    (about 260 KB), bit-identical to the anchored recurrence the longer
    stages run (docs/STREAMING.md).  A real signal given by the lower
    half of its Hermitian spectrum is inverted with an n/2-point
    transform ({!inverse_hermitian}).  Arbitrary lengths go through
    Bluestein's chirp-z algorithm.  Forward transforms are
    unscaled (X_k = sum_j x_j e^{-2 pi i jk/n}); inverse transforms
    divide by n, so [inverse (forward x) = x]. *)

val is_pow2 : int -> bool
(** [is_pow2 n] is true iff [n] is a positive power of two. *)

val next_pow2 : int -> int
(** Smallest power of two >= [n] (with [next_pow2 0 = 1]). *)

val bit_reverse : Float.Array.t -> int -> unit
(** [bit_reverse x l] permutes [x] (length 2^[l]) in place so that
    element i moves to the [l]-bit reversal of i: the transform's first
    step, exposed for testing. *)

val forward_pow2 : re:Float.Array.t -> im:Float.Array.t -> unit
(** In-place forward FFT.  @raise Invalid_argument if the buffers
    differ in length or the length is not a power of two. *)

val inverse_pow2 : re:Float.Array.t -> im:Float.Array.t -> unit
(** In-place inverse FFT (scaled by 1/n).  Same preconditions as
    {!forward_pow2}. *)

val inverse_pow2_real : re:Float.Array.t -> im:Float.Array.t -> unit
(** The real part of {!inverse_pow2}, for a result known or wanted to
    be real: [re] ends bit-identical to {!inverse_pow2}'s, and [im]
    holds the imaginary part unscaled (scratch).  Same preconditions
    as {!forward_pow2}. *)

val inverse_hermitian : re:Float.Array.t -> im:Float.Array.t -> unit
(** [inverse_hermitian ~re ~im] is the real n-point signal of a
    Hermitian spectrum given by its bins X_0 .. X_{n/2} alone:
    X_k = (re.(k), im.(k)), the bins above n/2 being the conjugates
    X_{n-k} = conj X_k.  The DC and Nyquist bins of a real signal are
    real, so [im.(0)] and [im.(n/2)] are not read.  [re] (length n, a
    power of two) is overwritten with the signal, scaled by 1/n as
    {!inverse_pow2} scales it, and [im] (length n/2 + 1) with scratch.
    It runs an O(n) split step, pairing bins k and n/2 - k, then an
    n/2-point complex inverse on the first halves of [re] and [im],
    about half the work of {!inverse_pow2} on the full spectrum; the
    result agrees with {!inverse_pow2}'s real part to rounding, not bit
    for bit.  Allocates nothing.
    @raise Invalid_argument if the length of [re] is not a power of two
    or [im] does not hold n/2 + 1 floats. *)

val dft : re:float array -> im:float array -> float array * float array
(** [dft ~re ~im] is the forward transform for any length, returning
    fresh arrays (Bluestein when the length is not a power of two).
    @raise Invalid_argument if [re] and [im] differ in length. *)

val rfft : float array -> float array * float array
(** [rfft x] is the forward transform of a real signal of any length,
    returned as full-length (re, im) arrays. *)

(** Streaming linear convolution with a fixed FIR filter by the
    overlap-add method: each input block is convolved via one
    forward/inverse FFT pair of length [next_pow2 (block + taps - 1)],
    and the [taps - 1] tail is carried into the next call — output
    equals direct convolution of the whole stream, in O(log m) work
    per sample and O(m) memory, independent of stream length.  Its
    transforms are not counted in [ptrng_signal_fft_*]: the convolver
    runs on the allocation-free streaming path, and recording a
    transform boxes its length.  See docs/STREAMING.md. *)
module Overlap_add : sig
  type t
  (** Convolver state: filter spectrum, FFT scratch and carried tail. *)

  val create : h:Float.Array.t -> block:int -> t
  (** [create ~h ~block] precomputes the spectrum of filter [h] for
      input blocks of at most [block] samples.
      @raise Invalid_argument if [h] is empty or [block <= 0]. *)

  val block : t -> int
  (** Maximum samples accepted by one [process] call. *)

  val process :
    t ->
    src:Float.Array.t -> src_pos:int ->
    dst:Float.Array.t -> dst_pos:int ->
    len:int -> unit
  (** [process t ~src ~src_pos ~dst ~dst_pos ~len] convolves the next
      [len] input samples and writes [len] output samples; [dst] may
      alias [src] (input is consumed before output is written).
      @raise Invalid_argument on a bad range or [len > block t]. *)

  val reset : t -> unit
  (** Zero the carried tail, restarting the stream. *)
end
