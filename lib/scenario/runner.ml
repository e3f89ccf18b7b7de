module FA = Float.Array
module Scenario = Ptrng_device.Scenario
module M = Ptrng_monitor
module Json = Ptrng_telemetry.Json

type result = {
  name : string;
  description : string;
  expected : string;
  seed : int;
  periods : int;
  divisor : int;
  onset : int option;
  detection : M.Detection.summary;
  final_status : M.Verdict.status;
  final_r : float;
  final_k : float;
  final_min_entropy : float;
  bits : int;
  windows : int;
  rct_alarms : int;
  apt_alarms : int;
  ais31_alarms : int;
  recoveries : int;
  incidents : Json.t list;
  incident_summaries : Json.t list;
}

(* Scored chunk: one snapshot is taken per chunk, which bounds the
   detection-timing error; 65536 periods is 1.6 chart windows at the
   stock divisor. *)
let chunk = 65536

(* The observatory defaults are sized for an indefinitely running
   device (256 sliding realizations per N refresh far too slowly to
   resolve the stock transient fault block).  Scenario scoring shrinks
   the windows so the estimator can track the schedule, judges r_N at
   N = 32 — the sliding fit's k = a/b carries a small-sample downward
   bias, and the smaller judged N keeps a calm run's noisy dips well
   clear of the confidence threshold while every scheduled fault still
   crosses it — narrows the chart window for finer latency resolution,
   and arms the fail-safe de-escalation. *)
let monitor_config () =
  {
    (M.Monitor.default_config ~f0:Ptrng_osc.Pair.paper_f0) with
    realizations = 128;
    min_realizations = 32;
    judge_n = 32;
    bit_window = 128;
    sp_window = 512;
    ais31_block = 512;
    recovery_windows = 4;
  }

(* Chunk-local edge times (t0 = 0): the edges [step]'s sampler
   restart rebuilds on every chunk.  Both rings restart at 0, so their
   relative phase resets at each chunk start (ROADMAP item 1 carries it
   across chunks). *)
let edges_of buf len =
  let e = Array.make (len + 1) 0.0 in
  for k = 0 to len - 1 do
    e.(k + 1) <- e.(k) +. FA.get buf k
  done;
  e

let step ~chunk ~divisor stream mon =
  let p1 = FA.create chunk in
  let p2 = FA.create chunk in
  let jbuf = FA.create chunk in
  let sampler = Ptrng_trng.Sampler.create ~divisor ~chunk in
  let bits = Array.make ((chunk / divisor) + 1) false in
  fun ~len ->
    Ptrng_osc.Pair.fill stream ~p1 ~p2 ~len;
    for i = 0 to len - 1 do
      FA.set jbuf i (FA.get p1 i -. FA.get p2 i)
    done;
    M.Monitor.feed_jitter_chunk mon jbuf ~len;
    (* Restarted per chunk: the same bits as [Sampler.sample] on
       [edges_of p1 len] and [edges_of p2 len]. *)
    Ptrng_trng.Sampler.restart sampler;
    let n = Ptrng_trng.Sampler.feed sampler ~p1 ~p2 ~len ~bits ~pos:0 in
    M.Monitor.feed_bits mon (Array.sub bits 0 n)

(* The live model claim, rebuilt exactly the way a fresh calibration
   would from the monitor's current sliding variance curve.  Early
   windows (too few points) or degenerate fits (non-positive thermal
   coefficient) yield nan, which the scorer ignores. *)
let live_entropy_claim ~f0 ~divisor (snap : M.Monitor.snapshot) =
  try
    let fit = Ptrng_measure.Fit.fit ~f0 snap.points in
    let extract = Ptrng_measure.Thermal_extract.of_fit fit in
    Ptrng_model.Design.entropy_at ~extract ~divisor
  with Invalid_argument _ | Failure _ -> nan

(* The detection scorer attributes the first alarm to one detector;
   the frozen incident records the verdict reasons at its trigger.
   When both exist, reporting whether they agree is the cross-check
   the scorer cannot do alone ([Null] when the incident is a recovery
   or nothing was detected). *)
let attribution_match (d : M.Detection.summary) inc =
  let direction, _, _ = M.Flight_recorder.incident_trigger inc in
  if direction <> "escalation" then Json.Null
  else
    match d.detected with
    | None -> Json.Null
    | Some a ->
      Json.Bool
        (List.exists
           (fun (code, _) -> code = a.detector)
           (M.Flight_recorder.incident_reasons inc))

let run ?(seed = 7) (e : Registry.entry) : result =
  let scen = e.Registry.scenario in
  let cfg = monitor_config () in
  let mon = M.Monitor.create cfg in
  let recorder =
    M.Flight_recorder.create
      ~provenance:
        {
          kind = "scenario";
          workload = Scenario.name scen;
          seed;
          divisor = e.divisor;
          chunk;
          flicker_block = chunk;
        }
      ()
  in
  M.Monitor.attach_recorder mon recorder;
  let static =
    Ptrng_measure.Thermal_extract.of_phase ~f0:Ptrng_osc.Pair.paper_f0
      Ptrng_osc.Pair.paper_relative
  in
  let static_r = Ptrng_measure.Thermal_extract.r_n static cfg.judge_n in
  let static_entropy =
    Ptrng_model.Design.entropy_at ~extract:static ~divisor:e.divisor
  in
  let onset = Scenario.onset scen in
  let det =
    M.Detection.create ?onset_period:onset ~static_r ~static_entropy ()
  in
  let rng = Ptrng_prng.Rng.create ~seed:(Int64.of_int seed) () in
  let pair = Ptrng_osc.Pair.paper_pair () in
  let stream = Ptrng_osc.Pair.stream ~flicker_block:chunk ~scenario:scen rng pair in
  let feed = step ~chunk ~divisor:e.divisor stream mon in
  let pos = ref 0 in
  while !pos < e.periods do
    let len = min chunk (e.periods - !pos) in
    feed ~len;
    pos := !pos + len;
    let snap = M.Monitor.snapshot mon in
    M.Detection.observe det
      ~live_entropy:(live_entropy_claim ~f0:cfg.f0 ~divisor:e.divisor snap)
      snap
  done;
  let snap = M.Monitor.snapshot mon in
  let det_summary = M.Detection.summary det in
  let frozen = M.Flight_recorder.incidents recorder in
  let summaries =
    List.map
      (fun inc ->
        match M.Flight_recorder.summary_json recorder inc with
        | Json.Obj kvs ->
          Json.Obj (kvs @ [ ("attribution_match", attribution_match det_summary inc) ])
        | j -> j)
      frozen
  in
  {
    name = Scenario.name scen;
    description = Scenario.description scen;
    expected = e.expected;
    seed;
    periods = e.periods;
    divisor = e.divisor;
    onset;
    detection = det_summary;
    final_status = snap.verdict.status;
    final_r = snap.r_judge;
    final_k = snap.k_est;
    final_min_entropy = snap.min_entropy;
    bits = snap.bits;
    windows = snap.windows;
    rct_alarms = snap.rct_alarms;
    apt_alarms = snap.apt_alarms;
    ais31_alarms = snap.ais31_alarms;
    recoveries = snap.recoveries;
    incidents = List.map (M.Flight_recorder.incident_json recorder) frozen;
    incident_summaries = summaries;
  }

let alarm_json (a : M.Detection.alarm) =
  Json.Obj
    [
      ("detector", Json.String a.detector);
      ("at_period", Json.Int a.at_period);
      ("at_bit", Json.Int a.at_bit);
      ("at_window", Json.Int a.at_window);
      ("latency_periods", Json.Int a.latency_periods);
      ("latency_bits", Json.Int a.latency_bits);
      ("latency_windows", Json.Int a.latency_windows);
    ]

let recovery_json (r : M.Detection.recovery) =
  Json.Obj
    [ ("at_period", Json.Int r.at_period); ("at_window", Json.Int r.at_window) ]

(* Deliberately free of wall-clock values: the same seed must produce
   byte-identical reports under any PTRNG_DOMAINS setting. *)
let result_json (r : result) =
  let d = r.detection in
  Json.Obj
    [
      ("name", Json.String r.name);
      ("description", Json.String r.description);
      ("expected", Json.String r.expected);
      ("seed", Json.Int r.seed);
      ("periods", Json.Int r.periods);
      ("divisor", Json.Int r.divisor);
      ("onset", match r.onset with None -> Json.Null | Some o -> Json.Int o);
      ("false_alarms", Json.Int d.false_alarms);
      ("pre_onset_nonok", Json.Int d.pre_onset_nonok);
      ( "detected",
        match d.detected with None -> Json.Null | Some a -> alarm_json a );
      ( "recovered",
        match d.recovered with None -> Json.Null | Some x -> recovery_json x );
      ( "static",
        Json.Obj
          [ ("r", Json.num d.static_r); ("entropy", Json.num d.static_entropy) ]
      );
      ( "live",
        Json.Obj
          [
            ("r", Json.num d.live_r);
            ("entropy", Json.num d.live_entropy);
            ("min_entropy", Json.num r.final_min_entropy);
          ] );
      ( "lie_margin",
        Json.Obj
          [
            ("r", Json.num d.lie_margin_r);
            ("entropy", Json.num d.lie_margin_entropy);
          ] );
      ( "alarms",
        Json.Obj
          [
            ("rct", Json.Int r.rct_alarms);
            ("apt", Json.Int r.apt_alarms);
            ("ais31", Json.Int r.ais31_alarms);
          ] );
      ("recoveries", Json.Int r.recoveries);
      ("incidents", Json.List r.incident_summaries);
      ( "final",
        Json.Obj
          [
            ("status", Json.String (M.Verdict.status_string r.final_status));
            ("r", Json.num r.final_r);
            ("k", Json.num r.final_k);
            ("bits", Json.Int r.bits);
            ("windows", Json.Int r.windows);
          ] );
    ]

let schema = "ptrng-scenario/1"

let report_json ~seed results =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("seed", Json.Int seed);
      ("scenarios", Json.List (List.map result_json results));
    ]
