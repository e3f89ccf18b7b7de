(** The live entropy-health observatory.

    One [t] consumes the two streams a running P-TRNG produces — raw
    period jitter samples and sampled output bits — and maintains,
    incrementally:

    - a sliding-window variance curve per accumulation length N, refit
      periodically to the paper's [f0^2 sigma_N^2 = aN + bN^2] model,
      giving a {e live} independence ratio [r_N = k/(k+N)] with
      [k = a/b] and a verdict against the configured confidence
      threshold (the paper's demonstrator: k = 5354, so r_N >= 95%
      holds up to N = 281);
    - SP 800-90B RCT/APT and AIS31-style online-monobit health tests,
      whose per-window alarm counts feed EWMA and CUSUM control
      charts;
    - a windowed most-common-value min-entropy trend.

    The state is exposed three ways: {!snapshot} for dashboards,
    {!health_json}/{!http_handler}/{!serve} for the [/metrics] and
    [/health] endpoints, and continuously through telemetry gauges,
    counters, {!Ptrng_telemetry.Series} counter tracks and the JSONL
    event log (kind ["monitor"]).

    All entry points are serialized on an internal mutex, so the HTTP
    listener domain may poll while the producing domain feeds. *)

type config = {
  f0 : float;             (** Nominal sampled-oscillator frequency (Hz). *)
  ns : int array;         (** Accumulation-length grid, increasing. *)
  realizations : int;     (** Sliding realizations kept per N. *)
  min_realizations : int; (** Realizations before an N contributes. *)
  confidence : float;     (** Independence threshold on r_N (e.g. 0.95). *)
  judge_n : int;          (** The N at which r_N is judged. *)
  fit_stride : int;       (** Refit cadence, in jitter samples. *)
  h_claim : float;        (** Claimed min-entropy/bit for RCT/APT cutoffs. *)
  sp_alpha_exp : int;     (** RCT/APT false-alarm exponent (2^-e). *)
  sp_window : int;        (** APT window (bits). *)
  bit_window : int;       (** Chart/entropy window (bits). *)
  ais31_block : int;      (** Online-monobit block (bits). *)
  ais31_alpha_exp : int;  (** Online-monobit false-alarm exponent. *)
  ewma_lambda : float;    (** EWMA smoothing weight. *)
  ewma_limit : float;     (** EWMA control limit (asymptotic sigmas). *)
  cusum_k : float;        (** CUSUM allowance (sigma units). *)
  cusum_h : float;        (** CUSUM decision interval (sigma units). *)
  chart_sigma : float;    (** In-control sigma of alarms per window. *)
  entropy_floor : float;  (** Windowed min-entropy below this: degraded. *)
  entropy_fail : float;   (** ... below this: failing. *)
  history : int;          (** Samples kept per trend (sparklines). *)
  recovery_windows : int;
  (** Consecutive clean windows (no test alarms and entropy above the
      floor — judged on the raw alarm stream, not the charts' lingering
      level) after which one level of sticky chart state is forgiven —
      failing drops to degraded, then to ok on the next streak.  0
      keeps crossings latched forever. *)
}
(** Observatory tuning.  Build from {!default_config} and override
    fields as needed. *)

val default_config : f0:float -> config
(** Defaults sized for the paper's demonstrator: grid 16..1024 with
    256 sliding realizations, r judged at N = 64 against 95%, refit
    every 8192 periods; RCT/APT at h = 0.997, charts over 512-bit
    windows with an in-control alarm rate of zero. *)

type t
(** One live observatory. *)

val create : config -> t
(** Fresh observatory.
    @raise Invalid_argument on inconsistent configuration (empty or
    non-increasing grid, thresholds outside their ranges, windows too
    small), a non-finite float, an integer beyond 2^20 in magnitude, or
    windows of more than 2^24 floats in all.  Every configuration it
    accepts round-trips through {!config_json} and {!config_of_json}. *)

val config_json : config -> Ptrng_telemetry.Json.t
(** The configuration as a flat JSON object ([ns] as an int list) —
    embedded in flight-recorder incident bundles so a post-mortem
    replay rebuilds an identically tuned monitor. *)

val config_of_json : Ptrng_telemetry.Json.t -> config option
(** Inverse of {!config_json} on every configuration {!create}
    accepts; [None] on any missing or mistyped field, or a
    configuration that {!create} would reject.  A configuration it
    returns builds a monitor. *)

val attach_recorder : t -> Flight_recorder.t -> unit
(** Attach a black-box {!Flight_recorder}: every subsequent jitter
    sample, bit, closed window and verdict transition is captured into
    its rings, escalations (and fail-safe recoveries) arm an incident
    freeze, and the monitor's configuration is stored for the bundle.
    Attach before feeding — samples seen earlier are not in the
    rings. *)

val feed_jitter : t -> float -> unit
(** Feed one period-jitter sample (seconds; any consistent unit works
    — r_N is scale-free).  Non-finite samples are dropped. *)

val feed_jitter_array : t -> float array -> unit
(** Feed a chunk of jitter samples under one lock acquisition. *)

val feed_jitter_chunk : t -> Float.Array.t -> len:int -> unit
(** [feed_jitter_chunk t buf ~len] feeds [buf.(0 .. len-1)] from a
    reused floatarray under one lock acquisition — the allocation-free
    companion of a streamed producer ({!Ptrng_osc.Pair.fill}).  The
    refit cadence is evaluated once per chunk rather than per sample,
    so a refit may land up to [len - 1] samples later than with
    {!feed_jitter}.
    @raise Invalid_argument if [len] exceeds the buffer. *)

val feed_bits : t -> bool array -> unit
(** Feed a chunk of sampled output bits through the health tests,
    charts and entropy window under one lock acquisition.  The chunk is
    handled in runs that end at chart-window boundaries; every output
    equals that of feeding the bits one at a time, whatever the split. *)

type transition = {
  tr_window : int;          (** Chart windows closed when it happened. *)
  tr_period : int;          (** Jitter samples consumed at that point. *)
  tr_bit : int;             (** Bits consumed at that point. *)
  tr_from : Verdict.status;
  tr_to : Verdict.status;
}
(** One verdict status change, positioned by stream counters (no
    wall clock — transitions replay deterministically). *)

type snapshot = {
  t_s : float;            (** {!Ptrng_telemetry.Clock} timestamp. *)
  periods : int;          (** Jitter samples consumed. *)
  bits : int;             (** Bits consumed. *)
  windows : int;          (** Chart windows closed. *)
  ready : bool;           (** Whether enough data arrived to fit r_N. *)
  judge_n : int;          (** N at which [r_judge] is evaluated. *)
  confidence : float;     (** Threshold [r_judge] is compared against. *)
  r_judge : float;        (** Live r_N at [judge_n]; [nan] until ready. *)
  k_est : float;          (** Fitted k = a/b; [infinity] = no flicker. *)
  threshold_n : int;      (** Largest N with r_N >= confidence; [max_int] = unbounded. *)
  points : Ptrng_measure.Variance_curve.point array;
                          (** Current windowed variance curve. *)
  rct_alarms : int;
  apt_alarms : int;
  ais31_alarms : int;
  ais31_blocks : int;
  alarm_rate : float;     (** Alarms in the last closed window; [nan] before. *)
  ewma_value : float;
  ewma_crossed : bool;    (** Sticky: EWMA chart ever alarmed. *)
  cusum_pos : float;
  cusum_neg : float;
  cusum_crossed : bool;   (** Sticky: CUSUM chart ever alarmed. *)
  min_entropy : float;    (** Last window's MCV estimate; [nan] before. *)
  clean_streak : int;     (** Consecutive clean windows so far. *)
  recoveries : int;       (** De-escalations granted since creation. *)
  windows_since_alarm : int;
                          (** Closed windows since one last alarmed. *)
  recent_r : float array;       (** r_N trend, oldest first. *)
  recent_entropy : float array; (** Min-entropy trend, oldest first. *)
  recent_alarms : float array;  (** Alarms-per-window trend, oldest first. *)
  recent_since_alarm : float array;
                          (** Windows-since-last-alarm trend, oldest first. *)
  transitions : transition array;
                          (** Verdict transitions, oldest first (capped
                              at [history]). *)
  verdict : Verdict.t;
}
(** One self-contained reading of the observatory, sufficient to
    render a dashboard without touching [t] again. *)

val snapshot : t -> snapshot
(** Read the current state.  The fit behind [r_judge]/[verdict] is
    recomputed locally from the live windows without touching the
    monitor's own stride-driven estimate, so polling at any cadence
    never perturbs the verdict trajectory the flight recorder
    captures. *)

val health_json : t -> Ptrng_telemetry.Json.t
(** The [/health] document, schema ["ptrng-monitor-health/1"]: the
    verdict with its reasons plus the independence, alarm, chart and
    entropy numbers behind it.  {!Verdict.of_json} parses it back. *)

val http_handler : t -> Http.handler
(** Routes [GET /] (a plain-text index of the endpoints below),
    [GET /metrics] (Prometheus text exposition via
    {!Ptrng_telemetry.Sink.to_prometheus}), [GET /health] (JSON),
    [GET /incidents] (flight-recorder incident summaries, schema
    ["ptrng-incidents/1"] — an empty list when no recorder is
    attached) and [GET /incidents/<n>] (the full frozen
    ["ptrng-incident/1"] bundle [n]); anything else is [None]
    (404). *)

val serve : ?host:string -> ?port:int -> t -> Http.t
(** Start an {!Http} server on {!http_handler}.  [port] defaults to 0
    (ephemeral — read it back with {!Http.port}). *)
