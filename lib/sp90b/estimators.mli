(** Min-entropy estimators in the style of NIST SP 800-90B (binary
    sources).

    The paper's warning — entropy claims built on an invalid
    independence assumption — is exactly the situation 90B's
    non-IID track exists for.  These estimators give empirical,
    assumption-light lower bounds on min-entropy per bit; applied to
    the simulated eRO-TRNG they complement the model-based entropy of
    [Ptrng_model.Entropy].

    All estimators return a per-bit min-entropy in [0, 1] computed from
    a 99% upper confidence bound on the relevant probability, as in the
    standard.  The binary specialisations of the collision and Markov
    estimators use the exact closed forms available for a two-letter
    alphabet (documented inline) rather than the generic numeric
    machinery of the full standard. *)

type estimate = {
  name : string;
  p_max : float;        (** Upper 99% bound on the exploited probability. *)
  min_entropy : float;  (** Per-bit min-entropy implied by [p_max]. *)
}

val most_common_value : bool array -> estimate
(** MCV estimator (90B §6.3.1): upper-bound the frequency of the most
    common symbol. @raise Invalid_argument on fewer than 100 bits. *)

val collision : bool array -> estimate
(** Collision estimator (90B §6.3.2, binary closed form).  For a binary
    source the minimal window containing a repeat has length 2 (prob
    p^2 + q^2) or 3, so [E(t) = 2 + 2 p q]; the lower confidence bound
    on the observed mean inverts to an upper bound on p.
    @raise Invalid_argument on fewer than 300 bits. *)

val markov : ?steps:int -> bool array -> estimate
(** Markov estimator (90B §6.3.3, binary): upper-bound the initial and
    transition probabilities, then dynamic-programming the most likely
    [steps]-bit trajectory (default 128); min-entropy is
    [-log2(P)/steps].  Catches the serial dependence that MCV misses —
    the estimator most sensitive to the paper's flicker-induced
    correlations. @raise Invalid_argument on fewer than 1000 bits. *)

val t_tuple : ?max_t:int -> bool array -> estimate
(** T-tuple estimator (90B §6.3.5): for every tuple length t (up to
    [max_t], default 16) whose most frequent tuple still appears >= 35
    times, bound the per-bit probability by [max_count/(n-t+1)]^(1/t);
    take the most pessimistic. @raise Invalid_argument on fewer than
    1000 bits. *)

val run_all : bool array -> estimate list * float
(** All estimators plus the 90B-style aggregate: the minimum of the
    individual min-entropies. *)
