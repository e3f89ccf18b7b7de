(** Special functions needed by the statistical machinery: log-gamma
    (Lanczos), regularised incomplete gamma (series + continued
    fraction), the error function, and inverses. *)

val log_gamma : float -> float
(** Natural log of the Gamma function for x > 0. *)

val gamma_p : a:float -> x:float -> float
(** Regularised lower incomplete gamma P(a, x), a > 0, x >= 0. *)

val gamma_q : a:float -> x:float -> float
(** Regularised upper incomplete gamma Q(a, x) = 1 - P(a, x). *)

val erf : float -> float
(** Error function: sign(x) P(1/2, x^2).  [erf] and [erfc] share one
    a = 1/2 incomplete-gamma core whose log Gamma(1/2) is computed once
    at module initialisation.  [erf (+-infinity) = +-1]; NaN gives NaN. *)

val erfc : float -> float
(** Complementary error function [1 - erf x] = Q(1/2, x^2) for x >= 0,
    accurate for large x.  Exactly 0 once the continued fraction's
    prefactor underflows (x > ~27.3) and for any x whose square
    overflows, including [infinity]; [erfc neg_infinity = 2]; NaN gives
    NaN. *)

val normal_cdf : float -> float
(** Standard normal CDF: 0 at [neg_infinity], 1 at [infinity]. *)

val normal_sf : float -> float
(** Standard normal survival function, accurate in the upper tail. *)

val normal_ppf : float -> float
(** Inverse standard normal CDF (Acklam's rational approximation with a
    Newton polish). @raise Invalid_argument if p outside (0,1). *)

val chi2_cdf : df:float -> float -> float
(** Chi-squared CDF with [df] degrees of freedom. *)

val chi2_sf : df:float -> float -> float
(** Chi-squared survival function with [df] degrees of freedom. *)

val ks_sf : float -> float
(** Kolmogorov distribution survival Q_KS(lambda)
    = 2 sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lambda^2). *)
