(** Bienaymé independence analysis (paper Section III-B2).

    If 2N consecutive jitter realizations are mutually independent,
    Bienaymé's formula forces [sigma_N^2 = 2 N sigma^2] — linear in N.
    The contraposition is the paper's weapon: observed super-linear
    growth proves the realizations are {e not} independent. *)

val linear_prediction : sigma2:float -> n:int -> float
(** Eq. 6: the variance an independent-jitter model predicts. *)

val growth_exponent :
  Ptrng_measure.Variance_curve.point array -> float * float
(** Log-log slope of sigma_N^2 vs N over the curve (slope, standard
    error).  1 means Bienaymé linearity (independence consistent);
    values toward 2 mean flicker-dominated, dependent realizations.
    @raise Invalid_argument with fewer than 3 points. *)

val departure_ratio :
  Ptrng_measure.Variance_curve.point array -> (int * float) array
(** For each curve point, [sigma_N^2 / (2 N sigma^2)] where [sigma^2]
    is calibrated on the smallest-N point (which the paper's threshold
    argument treats as effectively thermal).  A ratio drifting above 1
    with N is the dependence signature. *)
