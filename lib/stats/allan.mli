(** Allan, Hadamard and modified Allan variance.

    The paper's statistic [s_N] (eq. 4) is exactly an Allan-style
    two-sample difference: [sigma^2_N = 2 (N tau0)^2 sigma_y^2(N tau0)]
    where sigma_y^2 is the Allan variance of the fractional frequency of
    the oscillator.  This module provides the reference estimators used
    to validate the measurement pipeline and the noise generators.

    Inputs are fractional-frequency samples [y.(k)] taken at interval
    [tau0]; internally they are integrated into time-error data. *)

type point = {
  m : int;        (** Averaging factor. *)
  tau : float;    (** Averaging time [m * tau0]. *)
  avar : float;   (** Variance estimate at [tau]. *)
  neff : int;     (** Number of squared differences averaged. *)
}

val avar_nonoverlapping : tau0:float -> m:int -> float array -> float
(** Classic two-sample (Allan) variance with disjoint blocks.
    @raise Invalid_argument if fewer than [2m] samples are available. *)

val avar_overlapping : tau0:float -> m:int -> float array -> float
(** Overlapping estimator (all starting points); much lower estimator
    variance, the standard choice. *)

val hvar_overlapping : tau0:float -> m:int -> float array -> float
(** Overlapping Hadamard (three-sample) variance; insensitive to linear
    frequency drift. Needs [3m] samples. *)

val mvar : tau0:float -> m:int -> float array -> float
(** Modified Allan variance (phase-averaged); distinguishes white PM
    from flicker PM. Needs [3m] samples. *)

val sweep :
  ?estimator:[ `Overlapping | `Nonoverlapping ] ->
  tau0:float ->
  ms:int array ->
  float array ->
  point array
(** Evaluate the chosen estimator over a grid of averaging factors,
    skipping factors with insufficient data. *)

val octave_ms : n:int -> int array
(** Octave-spaced averaging factors 1, 2, 4, ... up to [n/4]. *)

val confidence_interval :
  ?level:float -> point -> float * float
(** Chi-squared confidence interval for the true Allan variance given a
    [point] estimate.  The equivalent degrees of freedom are
    approximated as [0.75 * neff / m]-ish for overlapping estimators;
    we use the simple conservative form [max 1 (neff / 2)].  Default
    level 0.683 (the conventional 1-sigma band).
    @raise Invalid_argument if [level] outside (0,1). *)

val crossover_tau :
  h0:float -> hm1:float -> float
(** Averaging time where white FM and flicker FM contribute equally:
    [h0 / (4 ln2 h_{-1})] — the Allan-domain face of the paper's ratio
    k/f0 (about 52 us for the paper's oscillator).
    @raise Invalid_argument on non-positive levels. *)

(** Closed forms for power-law noise (one-sided [S_y(f) = h_a f^a]),
    used as test oracles. *)

val avar_white_fm : h0:float -> tau:float -> float
(** White FM: [h0 / (2 tau)]. *)

val avar_flicker_fm : hm1:float -> float
(** Flicker FM: [2 ln 2 * h_{-1}], independent of tau. *)
