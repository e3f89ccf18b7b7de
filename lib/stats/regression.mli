(** Least-squares regression.

    The workhorse of the reproduction: fitting
    [f0^2 sigma^2_N = a N + b N^2 (+ c)] to separate thermal from
    flicker contributions (paper Section IV-A). *)

type linear_fit = {
  slope : float;
  intercept : float;
  slope_se : float;      (** Standard error of the slope. *)
  intercept_se : float;  (** Standard error of the intercept. *)
  r2 : float;            (** Coefficient of determination. *)
}

val linear : x:float array -> y:float array -> linear_fit
(** Ordinary least squares line. Needs >= 3 points for standard errors
    (they are reported as [nan] with exactly 2). *)

type fit = {
  coeffs : float array;     (** Fitted parameters, in design-column order. *)
  cov : Matrix.t;           (** Parameter covariance estimate. *)
  chi2 : float;             (** Weighted residual sum of squares. *)
  dof : int;                (** Degrees of freedom (points - parameters). *)
}

val general :
  design:Matrix.t -> y:float array -> ?sigma:float array -> unit -> fit
(** Weighted least squares with per-point standard deviations [sigma]
    (default: unit weights).  With explicit [sigma] the covariance is
    [(A^T W A)^-1] (absolute); without, it is scaled by the residual
    variance. @raise Invalid_argument on size mismatches. *)

val coeff_se : fit -> int -> float
(** Standard error of the k-th coefficient (sqrt of cov diagonal). *)
