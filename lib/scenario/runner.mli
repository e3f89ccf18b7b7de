(** Scenario execution and scoring.

    A run streams one {!Registry.entry}'s schedule through the full
    pipeline — scenario-aware oscillator pair ({!Ptrng_osc.Pair.stream}),
    relative jitter into the {!Ptrng_monitor.Monitor} variance-curve /
    health-test / control-chart stack, coincidence-sampled bits through
    the same monitor — while a {!Ptrng_monitor.Detection} scorer
    watches one snapshot per chunk.  The result carries the detection
    latency, first detector, false-alarm baseline, recovery timing and
    silent-lie margins, and serializes to the deterministic
    ["ptrng-scenario/1"] JSON report (no wall-clock fields, so equal
    seeds compare byte-identical across [PTRNG_DOMAINS] settings). *)

type result = {
  name : string;         (** Scenario name. *)
  description : string;  (** Scenario description. *)
  expected : string;     (** Registry's expected-outcome line. *)
  seed : int;            (** PRNG seed the run used. *)
  periods : int;         (** Jitter samples streamed. *)
  divisor : int;         (** Sampler divisor. *)
  onset : int option;    (** Schedule onset ({!Ptrng_device.Scenario.onset}). *)
  detection : Ptrng_monitor.Detection.summary;
      (** Latency, attribution, false alarms, recovery, lie margins. *)
  final_status : Ptrng_monitor.Verdict.status;  (** Verdict at the end. *)
  final_r : float;            (** Live r_N at the judged N, at the end. *)
  final_k : float;            (** Fitted k = a/b at the end. *)
  final_min_entropy : float;  (** Last windowed MCV min-entropy. *)
  bits : int;                 (** Output bits produced. *)
  windows : int;              (** Chart windows closed. *)
  rct_alarms : int;           (** Total RCT alarms over the run. *)
  apt_alarms : int;           (** Total APT alarms over the run. *)
  ais31_alarms : int;         (** Total AIS31 monobit alarms. *)
  recoveries : int;           (** Fail-safe de-escalations granted. *)
  incidents : Ptrng_telemetry.Json.t list;
      (** Full frozen ["ptrng-incident/1"] bundles, in freeze order —
          every run carries a {!Ptrng_monitor.Flight_recorder}, so an
          escalating scenario leaves replayable evidence behind. *)
  incident_summaries : Ptrng_telemetry.Json.t list;
      (** One summary per bundle, augmented with
          [attribution_match]: whether the {!Ptrng_monitor.Detection}
          scorer's first-alarm detector appears among the incident
          trigger's verdict reasons ([null] for recoveries or
          undetected runs). *)
}
(** One scored scenario run. *)

val chunk : int
(** Streaming chunk size (65536 periods); also the snapshot cadence,
    which bounds the detection-timing error. *)

val monitor_config : unit -> Ptrng_monitor.Monitor.config
(** The observatory configuration scenario runs are scored under:
    stock paper-f0 defaults with sliding windows shrunk (128
    realizations, 32 minimum) so the estimator tracks transients,
    r judged at N = 32 to absorb the sliding fit's small-sample bias
    on k, 128-bit chart windows, 512-bit APT/AIS31 blocks and a
    4-window recovery streak. *)

val run : ?seed:int -> Registry.entry -> result
(** Execute and score one entry.  [seed] (default 7) seeds the noise
    PRNG; everything else is deterministic. *)

val step :
  chunk:int -> divisor:int -> Ptrng_osc.Pair.stream -> Ptrng_monitor.Monitor.t ->
  (len:int -> unit)
(** The one chunk step from periods to monitor input, shared by {!run},
    {!Postmortem.replay} and [repro monitor]: [step ~chunk ~divisor st
    mon] allocates the chunk buffers once and returns [feed]; each
    [feed ~len] ([len <= chunk]) fills both rings, feeds the jitter
    [p1 - p2], latches the chunk through one {!Ptrng_trng.Sampler.t}
    restarted at the chunk start, and feeds the bits. *)

val edges_of : Float.Array.t -> int -> float array
(** [edges_of buf len]: the [len + 1] chunk-local edge times, from 0:
    {!Ptrng_trng.Sampler.sample} on these edges gives the bits [step]
    feeds.  Both rings restart at 0 every chunk, so their relative phase
    resets at each chunk start (ROADMAP item 1). *)

val result_json : result -> Ptrng_telemetry.Json.t
(** One scenario's JSON record (wall-clock-free). *)

val schema : string
(** ["ptrng-scenario/1"]. *)

val report_json : seed:int -> result list -> Ptrng_telemetry.Json.t
(** The full report: schema tag, seed and one record per scenario. *)
