(** Impulse sensitivity function (Hajimiri–Lee).

    The ISF Gamma(x) is a 2pi-periodic, dimensionless function giving
    the phase displacement caused by a unit charge injected at phase x
    of the oscillation.  Two of its summary statistics drive the
    noise-to-phase conversion used by the paper:

    - [Gamma_rms^2] sets how white current noise becomes the 1/f^2
      (thermal) phase-noise term;
    - the DC value [Gamma_dc] (the c0/2 Fourier term) sets how 1/f
      current noise up-converts into the 1/f^3 (flicker) term —
      a perfectly symmetric waveform has Gamma_dc = 0 and would show no
      flicker-induced phase noise at all. *)

type t
(** A sampled ISF over one period. *)

val of_function : ?samples:int -> (float -> float) -> t
(** [of_function f] samples [f] on [0, 2pi) (default 1024 points). *)

val ring_oscillator : stages:int -> ?asymmetry:float -> unit -> t
(** Hajimiri's ring-oscillator ISF approximation: one triangular lobe
    of height [pi/stages] and width [2pi/stages] per edge, the falling
    lobe scaled by [1 - asymmetry] (default asymmetry 0.1 — a realistic
    rise/fall mismatch; 0 gives a flicker-immune, perfectly symmetric
    ring).  The lobe height/width reproduce Hajimiri's
    [Gamma_rms^2 = 2 pi^2 / (3 N^3)].
    @raise Invalid_argument if [stages < 3] or asymmetry outside [0,1]. *)

val gamma_rms : t -> float
(** Root-mean-square of the ISF over one period. *)

val gamma_dc : t -> float
(** Mean of the ISF over one period (the c0/2 Fourier coefficient). *)

val fourier_coefficient : t -> int -> float
(** Magnitude of the m-th Fourier coefficient c_m
    (with [c_0 = 2 *. gamma_dc]). *)

val eval : t -> float -> float
(** Linear interpolation of the sampled ISF at any phase (radians). *)
