(** Coherent-sampling TRNG (Bernard–Fischer–Valtchanov, the paper's
    ref. [5], modelled on free-running rings instead of PLLs).

    The two clock frequencies are locked to a rational ratio
    [f1/f2 = km/kd] (coprime).  Sampling Osc1 at every Osc2 edge then
    sweeps the sampling point deterministically through [kd]
    equidistant positions of Osc1's period (step [T1/kd]); without
    jitter the [kd]-sample pattern repeats forever.  Jitter flips the
    samples taken near the waveform edges — the "critical samples" —
    and XOR-ing each group of [kd] samples concentrates exactly that
    randomness into one output bit per pattern period.

    The quality knob is the ratio [sigma / (T1/kd)] of jitter to the
    sweep step: the paper's thermal-vs-flicker split decides how much
    of that sigma is trustworthy, just as for the eRO-TRNG. *)

type config = {
  pair : Ptrng_osc.Pair.t;  (** Rings locked to the rational ratio. *)
  km : int;                 (** Osc1 periods per pattern. *)
  kd : int;                 (** Osc2 periods per pattern (samples/bit). *)
}

val config :
  ?relative:Ptrng_noise.Psd_model.phase ->
  f0:float ->
  km:int ->
  kd:int ->
  unit ->
  config
(** Build a coherent pair: Osc2 at [f0], Osc1 at [f0 * km / kd], both
    carrying half of [relative] (default: the paper's coefficients).
    @raise Invalid_argument unless [0 < km], [0 < kd] and
    [gcd km kd = 1]. *)

val critical_fraction : config -> sigma_period:float -> float
(** Fraction of the [kd] samples whose distance to a waveform edge is
    below one jitter sigma accumulated over a pattern — a quick quality
    heuristic (should be >= 1/kd for useful output). *)

val generate : Ptrng_prng.Rng.t -> config -> bits:int -> Bitstream.t
(** Simulate the generator and return [bits] output bits (one per
    [kd]-sample pattern). @raise Invalid_argument if [bits <= 0]. *)
