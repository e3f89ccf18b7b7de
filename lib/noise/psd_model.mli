(** Power-law spectral models.

    Two representations are linked here:

    - the paper's phase-noise form (eq. 10, two-sided convention):
      [S_phi(f) = b_fl / f^3 + b_th / f^2];
    - the time-and-frequency community's one-sided fractional-frequency
      form: [S_y(f) = h2 f^2 + h1 f + h0 + h_{-1}/f + h_{-2}/f^2].

    For an oscillator of nominal frequency [f0] they are related by
    [S_phi(f) = f0^2 S_y(f) / f^2] (same sidedness); with the paper
    using two-sided phase PSDs, the one-sided S_y levels carry an extra
    factor of two:
    [h0 = 2 b_th / f0^2] and [h_{-1} = 2 b_fl / f0^2]. *)

type phase = { b_th : float; b_fl : float }
(** Two-sided phase-noise coefficients (the paper's b_th, b_fl). *)

type frac_freq = { h0 : float; hm1 : float; hm2 : float }
(** One-sided fractional-frequency levels: white FM [h0], flicker FM
    [h_{-1}], random-walk FM [h_{-2}] (the last is 0 in the paper's
    model but supported for ablations).  Spectral synthesis
    ({!Spectral_synth}, {!Source.spectral}) takes this record as its
    target PSD [h0 + h_{-1}/f] and rejects a nonzero [hm2]. *)

val phase_psd : phase -> float -> float
(** [phase_psd p f] evaluates [b_fl/f^3 + b_th/f^2].
    @raise Invalid_argument if [f <= 0]. *)

val frac_freq_of_phase : f0:float -> phase -> frac_freq
(** The calibration identity above ([hm2 = 0]). *)

val phase_of_frac_freq : f0:float -> frac_freq -> phase
(** Inverse mapping (ignores [hm2]). *)

val thermal_period_jitter_var : f0:float -> phase -> float
(** Per-period jitter variance from the thermal term only:
    [b_th / f0^3] (paper Section IV-A). *)

val corner_frequency : phase -> float
(** Frequency where flicker and thermal phase noise are equal:
    [b_fl / b_th]. @raise Invalid_argument if [b_th <= 0]. *)
