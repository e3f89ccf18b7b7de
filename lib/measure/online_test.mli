(** The embedded thermal-noise test the paper's conclusion proposes:
    a cheap, counter-only statistic that monitors the thermal (i.e.
    genuinely entropy-bearing) jitter at run time and can "detect very
    quickly attacks targeting the entropy source".

    Principle: measure Var(s_N) with the Fig. 6 counter on a small grid
    of accumulation lengths and fit
    [f0^2 sigma_N^2 = c + a N + b N^2]: the constant absorbs the
    counter quantization floor, the quadratic term the flicker noise,
    and [b_th = a f0 / 2] is compared against a commissioning
    reference.  An attack that quenches the thermal jitter (e.g.
    frequency injection locking the two rings) collapses the estimate
    even when the total long-run jitter — dominated by flicker — still
    looks healthy.

    Physics dictates the grid: integer counting cannot resolve the
    thermal term below its quantization floor, so the grid must reach
    accumulation lengths where [a N] is comparable to one count^2
    (N of order 10^4 at the paper's jitter level — about a millisecond
    of measurement per window at 103 MHz; still cheap enough to run
    continuously in fabric). *)

type config = {
  ns : int array;       (** Accumulation-length grid (>= 4 values). *)
  windows : int;        (** Counter windows per grid point. *)
  min_fraction : float; (** Alarm when est. b_th falls below this
                            fraction of the reference. *)
}

type verdict = {
  b_th_est : float;      (** Estimated thermal coefficient. *)
  sigma_est : float;     (** Estimated thermal period jitter, s. *)
  floor_est : float;     (** Fitted quantization floor, counts^2. *)
  total_var_max_n : float; (** Raw scaled variance at the largest N
                              (what a naive total-jitter test sees). *)
  pass : bool;
}

val run :
  config -> f0:float -> reference_b_th:float ->
  edges1:float array -> edges2:float array -> verdict
(** Evaluate the test on a recorded edge-stream segment.

    When telemetry is enabled every evaluation also updates the running
    registry metrics [ptrng_measure_online_runs_total],
    [ptrng_measure_online_alarms_total],
    [ptrng_measure_online_alarm_rate] and
    [ptrng_measure_online_b_th_last], so a long campaign can be
    monitored mid-flight instead of only through each final boolean.
    @raise Invalid_argument on a malformed config or a stream too
    short to fill the grid. *)

val required_cycles : config -> int
(** Osc2 cycles consumed by one evaluation. *)

val windows_for_precision :
  phase:Ptrng_noise.Psd_model.phase ->
  floor:float ->
  ns:int array ->
  f0:float ->
  rel_precision:float ->
  int
(** Feasibility analysis for the test at a given operating point: the
    number of counter windows per grid point needed so that the fitted
    thermal coefficient has relative standard error [rel_precision].

    Computed from the weighted-least-squares covariance
    [(X^T Sigma^-1 X)^-1] with the chi-square variance of each curve
    point, [Var(v_i) ~ 2 v_i^2 / (W/2)].  At the paper's jitter level
    the answer is sobering (hundreds of windows at N ~ 10^4-10^5, i.e.
    seconds of silicon time for a 25% estimate) — the proposed embedded
    test is cheap in gates but not in averaging time; see
    EXPERIMENTS.md, Ablation C. *)
