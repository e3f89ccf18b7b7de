module T = Ptrng_telemetry

type config = {
  f0 : float;
  ns : int array;
  realizations : int;
  min_realizations : int;
  confidence : float;
  judge_n : int;
  fit_stride : int;
  h_claim : float;
  sp_alpha_exp : int;
  sp_window : int;
  bit_window : int;
  ais31_block : int;
  ais31_alpha_exp : int;
  ewma_lambda : float;
  ewma_limit : float;
  cusum_k : float;
  cusum_h : float;
  chart_sigma : float;
  entropy_floor : float;
  entropy_fail : float;
  history : int;
  recovery_windows : int;
}

(* judge_n = 64 sits inside the default grid with margin on both
   sides of the paper's demonstrator: calibrated k = 5354 gives
   r_64 = 0.988, which stays above 95% even under the sliding-window
   fit's b noise, while a flicker-dominated (quenched-thermal) run
   collapses k by the quench factor and lands far below. *)
let default_config ~f0 =
  {
    f0;
    ns = [| 16; 64; 256; 1024 |];
    realizations = 256;
    min_realizations = 16;
    confidence = 0.95;
    judge_n = 64;
    fit_stride = 8192;
    h_claim = 0.997;
    sp_alpha_exp = 30;
    sp_window = 1024;
    bit_window = 512;
    ais31_block = 1024;
    ais31_alpha_exp = 20;
    ewma_lambda = 0.2;
    ewma_limit = 1.5;
    cusum_k = 0.25;
    cusum_h = 2.0;
    chart_sigma = 1.0;
    entropy_floor = 0.6;
    entropy_fail = 0.2;
    history = 64;
    recovery_windows = 64;
  }

type transition = {
  tr_window : int;
  tr_period : int;
  tr_bit : int;
  tr_from : Verdict.status;
  tr_to : Verdict.status;
}

type t = {
  cfg : config;
  lock : Mutex.t;
  rn : Rn_estimator.t;
  sp : Ptrng_sp90b.Health.monitor;
  ais : Ptrng_ais31.Online.t;
  ewma : Control_chart.ewma;
  cusum : Control_chart.cusum;
  mutable bits : int;
  mutable win_bits : int;
  mutable win_ones : int;
  mutable win_alarms : int;
  mutable windows : int;
  mutable last_entropy : float;
  mutable last_alarm_rate : float;
  recent_r : Window.t;
  recent_entropy : Window.t;
  recent_alarms : Window.t;
  mutable est : Rn_estimator.estimate option;
  mutable since_fit : int;
  mutable clean_streak : int;
  mutable recoveries : int;
  mutable last_status : Verdict.status;
  mutable transitions : transition list; (* newest first, capped at history *)
  mutable windows_since_alarm : int;
  recent_since_alarm : Window.t;
  mutable recorder : Flight_recorder.t option;
}

let g_r = T.Registry.Gauge.v ~help:"Live independence ratio r_N at the judged N" "ptrng_monitor_r_n"
let g_k = T.Registry.Gauge.v ~help:"Fitted thermal/flicker ratio k = a/b" "ptrng_monitor_k"
let g_threshold =
  T.Registry.Gauge.v ~help:"Largest N with r_N above the confidence threshold"
    "ptrng_monitor_threshold_n"
let g_ewma = T.Registry.Gauge.v ~help:"EWMA statistic over alarms per window" "ptrng_monitor_ewma"
let g_cusum =
  T.Registry.Gauge.v ~help:"Upper one-sided CUSUM over alarms per window (sigma units)"
    "ptrng_monitor_cusum_pos"
let g_entropy =
  T.Registry.Gauge.v ~help:"Windowed most-common-value min-entropy per bit"
    "ptrng_monitor_min_entropy"
let g_verdict =
  T.Registry.Gauge.v ~help:"Health verdict severity: 0 ok, 1 degraded, 2 failing"
    "ptrng_monitor_verdict"
let c_windows =
  T.Registry.Counter.v ~help:"Chart windows closed" "ptrng_monitor_windows_total"
let c_chart_alarms =
  T.Registry.Counter.v ~help:"Windows on which a control chart alarmed"
    "ptrng_monitor_chart_alarms_total"

let s_r = T.Series.v ~help:"Live r_N trajectory" "ptrng_monitor_r_n"
let s_alarm_rate = T.Series.v ~help:"Alarms per chart window" "ptrng_monitor_alarm_rate"
let s_ewma = T.Series.v ~help:"EWMA statistic trajectory" "ptrng_monitor_ewma"
let s_cusum = T.Series.v ~help:"Upper CUSUM trajectory" "ptrng_monitor_cusum_pos"
let s_entropy = T.Series.v ~help:"Windowed min-entropy trajectory" "ptrng_monitor_min_entropy"

(* Limits every configuration keeps, so each one that builds a monitor
   also round-trips through [config_json] and [config_of_json]: floats
   finite (JSON holds no others), integers at most [max_field] in
   magnitude (the detectors size windows and compute cutoffs from them,
   and a bundle is outside input), and the windows at most
   [max_window_floats] floats in all. *)
let max_field = 1 lsl 20

let max_window_floats = 1 lsl 24

let check_limits cfg =
  let int_ok n = n >= -max_field && n <= max_field in
  if
    not
      (Array.for_all int_ok cfg.ns
      && List.for_all int_ok
           [
             cfg.realizations; cfg.min_realizations; cfg.judge_n;
             cfg.fit_stride; cfg.sp_alpha_exp; cfg.sp_window; cfg.bit_window;
             cfg.ais31_block; cfg.ais31_alpha_exp; cfg.history;
             cfg.recovery_windows;
           ])
  then invalid_arg "Monitor.create: integer field beyond 2^20 in magnitude";
  if
    not
      (List.for_all Float.is_finite
         [
           cfg.f0; cfg.confidence; cfg.h_claim; cfg.ewma_lambda; cfg.ewma_limit;
           cfg.cusum_k; cfg.cusum_h; cfg.chart_sigma; cfg.entropy_floor;
           cfg.entropy_fail;
         ])
  then invalid_arg "Monitor.create: non-finite float field";
  if (Array.length cfg.ns * cfg.realizations) + (4 * cfg.history) > max_window_floats
  then invalid_arg "Monitor.create: windows above 2^24 floats"

let create cfg =
  check_limits cfg;
  if cfg.judge_n < 1 then invalid_arg "Monitor.create: judge_n < 1";
  if not (cfg.confidence > 0.0 && cfg.confidence < 1.0) then
    invalid_arg "Monitor.create: confidence outside (0, 1)";
  if cfg.fit_stride < 1 then invalid_arg "Monitor.create: fit_stride < 1";
  if cfg.bit_window < 8 then invalid_arg "Monitor.create: bit_window < 8";
  if not (cfg.entropy_fail <= cfg.entropy_floor) then
    invalid_arg "Monitor.create: entropy_fail above entropy_floor";
  if cfg.history < 2 then invalid_arg "Monitor.create: history < 2";
  if cfg.recovery_windows < 0 then
    invalid_arg "Monitor.create: recovery_windows < 0";
  {
    cfg;
    lock = Mutex.create ();
    rn =
      Rn_estimator.create ~ns:cfg.ns ~realizations:cfg.realizations
        ~min_realizations:cfg.min_realizations ~f0:cfg.f0 ();
    sp =
      Ptrng_sp90b.Health.monitor_of_entropy ~alpha_exp:cfg.sp_alpha_exp
        ~window:cfg.sp_window ~h:cfg.h_claim ();
    ais =
      Ptrng_ais31.Online.create ~block_bits:cfg.ais31_block
        ~alpha_exp:cfg.ais31_alpha_exp ();
    ewma =
      Control_chart.ewma_create ~lambda:cfg.ewma_lambda ~limit:cfg.ewma_limit
        ~mean:0.0 ~sigma:cfg.chart_sigma ();
    cusum =
      Control_chart.cusum_create ~k:cfg.cusum_k ~h:cfg.cusum_h ~mean:0.0
        ~sigma:cfg.chart_sigma ();
    bits = 0;
    win_bits = 0;
    win_ones = 0;
    win_alarms = 0;
    windows = 0;
    last_entropy = nan;
    last_alarm_rate = nan;
    recent_r = Window.create ~capacity:cfg.history;
    recent_entropy = Window.create ~capacity:cfg.history;
    recent_alarms = Window.create ~capacity:cfg.history;
    est = None;
    since_fit = 0;
    clean_streak = 0;
    recoveries = 0;
    last_status = Verdict.Ok;
    transitions = [];
    windows_since_alarm = 0;
    recent_since_alarm = Window.create ~capacity:cfg.history;
    recorder = None;
  }

(* Round-trippable configuration, embedded in incident bundles so a
   post-mortem replay rebuilds an identically tuned monitor. *)
let config_json c =
  let open T.Json in
  Obj
    [
      ("f0", num c.f0);
      ("ns", List (Array.to_list (Array.map (fun n -> Int n) c.ns)));
      ("realizations", Int c.realizations);
      ("min_realizations", Int c.min_realizations);
      ("confidence", num c.confidence);
      ("judge_n", Int c.judge_n);
      ("fit_stride", Int c.fit_stride);
      ("h_claim", num c.h_claim);
      ("sp_alpha_exp", Int c.sp_alpha_exp);
      ("sp_window", Int c.sp_window);
      ("bit_window", Int c.bit_window);
      ("ais31_block", Int c.ais31_block);
      ("ais31_alpha_exp", Int c.ais31_alpha_exp);
      ("ewma_lambda", num c.ewma_lambda);
      ("ewma_limit", num c.ewma_limit);
      ("cusum_k", num c.cusum_k);
      ("cusum_h", num c.cusum_h);
      ("chart_sigma", num c.chart_sigma);
      ("entropy_floor", num c.entropy_floor);
      ("entropy_fail", num c.entropy_fail);
      ("history", Int c.history);
      ("recovery_windows", Int c.recovery_windows);
    ]

(* A configuration read back from a bundle is outside input: beyond the
   field types, [create] must accept it.  That runs the limits above and
   every check of the monitor and of the detectors it builds, so a
   replay never fails building its monitor. *)
let config_of_json j =
  let parsed =
    let open T.Json in
    try
      let int_field = function Int n -> n | _ -> raise Exit in
      let geti k =
        match member k j with Some v -> int_field v | None -> raise Exit
      in
      let getf k =
        match Option.bind (member k j) to_float with
        | Some f -> f
        | None -> raise Exit
      in
      let ns =
        match member "ns" j with
        | Some (List l) -> Array.of_list (List.map int_field l)
        | _ -> raise Exit
      in
      Some
        {
          f0 = getf "f0";
          ns;
          realizations = geti "realizations";
          min_realizations = geti "min_realizations";
          confidence = getf "confidence";
          judge_n = geti "judge_n";
          fit_stride = geti "fit_stride";
          h_claim = getf "h_claim";
          sp_alpha_exp = geti "sp_alpha_exp";
          sp_window = geti "sp_window";
          bit_window = geti "bit_window";
          ais31_block = geti "ais31_block";
          ais31_alpha_exp = geti "ais31_alpha_exp";
          ewma_lambda = getf "ewma_lambda";
          ewma_limit = getf "ewma_limit";
          cusum_k = getf "cusum_k";
          cusum_h = getf "cusum_h";
          chart_sigma = getf "chart_sigma";
          entropy_floor = getf "entropy_floor";
          entropy_fail = getf "entropy_fail";
          history = geti "history";
          recovery_windows = geti "recovery_windows";
        }
    with Exit -> None
  in
  match Option.map create parsed with
  | Some (_ : t) -> parsed
  | None | (exception Invalid_argument _) -> None

let attach_recorder t r =
  Mutex.protect t.lock (fun () ->
      t.recorder <- Some r;
      Flight_recorder.set_monitor_config r (config_json t.cfg))


let r_judge_of t =
  match t.est with
  | None -> nan
  | Some e -> Rn_estimator.r_of_fit e.fit t.cfg.judge_n

(* Verdict rules (docs/MONITORING.md): each watched statistic
   contributes a reason; min-entropy collapse — or both charts
   alarming at once — escalates to failing.  [est] is a parameter so a
   wall-clock-cadence snapshot can judge a locally recomputed fit
   without perturbing the stride-driven trajectory the flight recorder
   captures. *)
let compute_verdict t ~(est : Rn_estimator.estimate option) =
  let reasons = ref [] in
  let add code detail = reasons := { Verdict.code; detail } :: !reasons in
  (match est with
  | None -> ()
  | Some e ->
    let r = Rn_estimator.r_of_fit e.fit t.cfg.judge_n in
    if r < t.cfg.confidence then
      add "independence"
        (Printf.sprintf
           "r_%d = %.3f below the %.0f%% independence threshold (k = %.0f)"
           t.cfg.judge_n r (100.0 *. t.cfg.confidence) e.k));
  let ewma_on = Control_chart.ewma_crossed t.ewma in
  let cusum_on = Control_chart.cusum_crossed t.cusum in
  if ewma_on then
    add "ewma"
      (Printf.sprintf "EWMA chart crossed (statistic %.2f)"
         (Control_chart.ewma_value t.ewma));
  if cusum_on then
    add "cusum"
      (Printf.sprintf "CUSUM chart crossed (S+ = %.2f, S- = %.2f)"
         (Control_chart.cusum_pos t.cusum)
         (Control_chart.cusum_neg t.cusum));
  if Float.is_finite t.last_entropy then begin
    if t.last_entropy < t.cfg.entropy_fail then
      add "min-entropy-collapse"
        (Printf.sprintf "windowed min-entropy %.3f below the failure floor %.2f"
           t.last_entropy t.cfg.entropy_fail)
    else if t.last_entropy < t.cfg.entropy_floor then
      add "min-entropy"
        (Printf.sprintf "windowed min-entropy %.3f below the floor %.2f"
           t.last_entropy t.cfg.entropy_floor)
  end;
  let both_charts = ewma_on && cusum_on in
  Verdict.make (List.rev !reasons) ~failing:(fun (r : Verdict.reason) ->
      r.code = "min-entropy-collapse"
      || (both_charts && (r.code = "ewma" || r.code = "cusum")))

let publish_verdict (v : Verdict.t) =
  T.Registry.Gauge.set g_verdict (float_of_int (Verdict.severity v.status))

let reason_pairs (v : Verdict.t) =
  List.map (fun (r : Verdict.reason) -> (r.Verdict.code, r.Verdict.detail)) v.reasons

(* Verdict-transition bookkeeping: remember the crossing for the
   dashboard, hand it to the flight recorder, and arm an incident
   capture when the severity went up (de-escalations are captured by
   the recovery path in [close_window]). *)
let note_verdict t (v : Verdict.t) =
  if v.status <> t.last_status then begin
    let from_s = t.last_status and to_s = v.status in
    let at_period = Rn_estimator.samples t.rn in
    let tr =
      {
        tr_window = t.windows;
        tr_period = at_period;
        tr_bit = t.bits;
        tr_from = from_s;
        tr_to = to_s;
      }
    in
    t.transitions <-
      tr :: List.filteri (fun i _ -> i < t.cfg.history - 1) t.transitions;
    t.last_status <- to_s;
    (match t.recorder with
    | None -> ()
    | Some r ->
      Flight_recorder.record_transition r ~at_window:t.windows ~at_period
        ~at_bit:t.bits
        ~severity_from:(Verdict.severity from_s)
        ~severity_to:(Verdict.severity to_s);
      if Verdict.severity to_s > Verdict.severity from_s then
        Flight_recorder.note_trigger r ~direction:"escalation"
          ~severity_from:(Verdict.severity from_s)
          ~severity_to:(Verdict.severity to_s) ~at_period ~at_bit:t.bits
          ~at_window:t.windows ~reasons:(reason_pairs v));
    T.Mark.emit "verdict.transition"
      ~args:
        [
          ("from", T.Json.String (Verdict.status_string from_s));
          ("to", T.Json.String (Verdict.status_string to_s));
          ("window", T.Json.Int t.windows);
        ];
    T.Event_log.emit ~kind:"monitor"
      [
        ("what", T.Json.String "transition");
        ("from", T.Json.String (Verdict.status_string from_s));
        ("to", T.Json.String (Verdict.status_string to_s));
        ("window", T.Json.Int t.windows);
        ("periods", T.Json.Int at_period);
        ("bits", T.Json.Int t.bits);
      ]
  end

let refresh_fit t =
  t.est <- Rn_estimator.estimate ~confidence:t.cfg.confidence t.rn;
  match t.est with
  | None -> ()
  | Some e ->
    let r = Rn_estimator.r_of_fit e.fit t.cfg.judge_n in
    Window.push t.recent_r r;
    T.Registry.Gauge.set g_r r;
    T.Registry.Gauge.set g_k e.k;
    if e.threshold_n < max_int then
      T.Registry.Gauge.set g_threshold (float_of_int e.threshold_n);
    T.Series.record s_r r;
    let v = compute_verdict t ~est:t.est in
    publish_verdict v;
    note_verdict t v;
    T.Event_log.emit ~kind:"monitor"
      [
        ("what", T.Json.String "fit");
        ("n", T.Json.Int t.cfg.judge_n);
        ("r_n", T.Json.num r);
        ("k", T.Json.num e.k);
        ("periods", T.Json.Int (Rn_estimator.samples t.rn));
      ]

let feed_jitter_unlocked t x =
  (match t.recorder with
  | Some r -> Flight_recorder.record_jitter r x
  | None -> ());
  Rn_estimator.feed t.rn x;
  t.since_fit <- t.since_fit + 1;
  if t.since_fit >= t.cfg.fit_stride then begin
    t.since_fit <- 0;
    refresh_fit t
  end

let close_window t =
  (* Advance the flight recorder's post-trigger countdown first: an
     armed capture freezes at the start of a later window close, so
     the frozen rings hold full windows of post-trigger context. *)
  (match t.recorder with
  | Some r -> Flight_recorder.tick_window r
  | None -> ());
  let w = t.win_bits in
  let alarms = float_of_int t.win_alarms in
  let p_max = float_of_int (max t.win_ones (w - t.win_ones)) /. float_of_int w in
  let h =
    if p_max >= 1.0 then 0.0 else -.(Float.log p_max /. Float.log 2.0)
  in
  t.last_entropy <- h;
  t.last_alarm_rate <- alarms;
  Window.push t.recent_entropy h;
  Window.push t.recent_alarms alarms;
  let e_alarm = Control_chart.ewma_feed t.ewma alarms in
  let c_alarm = Control_chart.cusum_feed t.cusum alarms in
  t.windows <- t.windows + 1;
  T.Registry.Counter.incr c_windows;
  if e_alarm || c_alarm then T.Registry.Counter.incr c_chart_alarms;
  if t.win_alarms = 0 then
    t.windows_since_alarm <- t.windows_since_alarm + 1
  else t.windows_since_alarm <- 0;
  Window.push t.recent_since_alarm (float_of_int t.windows_since_alarm);
  (* Fail-safe recovery: a window is clean when no test alarmed and
     the entropy trend is above the floor.  Cleanliness is judged on
     the raw alarm stream, not on the charts — their lingering level
     is exactly the memory a streak forgives.  A streak of
     [recovery_windows] clean windows forgives one level of sticky
     chart state — failing (both charts) drops to degraded first, then
     to ok on the next streak — so a transient fault de-escalates
     instead of latching forever, while a persistent one keeps
     alarming, never accrues a streak, and never climbs down. *)
  let clean = t.win_alarms = 0 && h >= t.cfg.entropy_floor in
  if clean then t.clean_streak <- t.clean_streak + 1 else t.clean_streak <- 0;
  let ewma_on = Control_chart.ewma_crossed t.ewma in
  let cusum_on = Control_chart.cusum_crossed t.cusum in
  let recovered = ref false in
  if
    t.cfg.recovery_windows > 0
    && t.clean_streak >= t.cfg.recovery_windows
    && (ewma_on || cusum_on)
  then begin
    if ewma_on && cusum_on then Control_chart.cusum_reset t.cusum
    else begin
      Control_chart.ewma_reset t.ewma;
      Control_chart.cusum_reset t.cusum
    end;
    t.recoveries <- t.recoveries + 1;
    t.clean_streak <- 0;
    recovered := true;
    T.Mark.emit "monitor.recovered"
      ~args:
        [
          ("window", T.Json.Int t.windows);
          ("recoveries", T.Json.Int t.recoveries);
        ];
    T.Event_log.emit ~kind:"monitor"
      [
        ("what", T.Json.String "recovered");
        ("window", T.Json.Int t.windows);
        ("recoveries", T.Json.Int t.recoveries);
      ]
  end;
  T.Registry.Gauge.set g_ewma (Control_chart.ewma_value t.ewma);
  T.Registry.Gauge.set g_cusum (Control_chart.cusum_pos t.cusum);
  T.Registry.Gauge.set g_entropy h;
  T.Series.record s_alarm_rate alarms;
  T.Series.record s_ewma (Control_chart.ewma_value t.ewma);
  T.Series.record s_cusum (Control_chart.cusum_pos t.cusum);
  T.Series.record s_entropy h;
  let prev_status = t.last_status in
  let v = compute_verdict t ~est:t.est in
  publish_verdict v;
  (match t.recorder with
  | Some r ->
    Flight_recorder.record_window r ~index:t.windows ~alarms:t.win_alarms
      ~min_entropy:h
      ~ewma:(Control_chart.ewma_value t.ewma)
      ~cusum_pos:(Control_chart.cusum_pos t.cusum)
      ~r_n:(r_judge_of t)
      ~severity:(Verdict.severity v.status)
  | None -> ());
  note_verdict t v;
  if !recovered then
    (match t.recorder with
    | Some r ->
      Flight_recorder.note_trigger r ~direction:"recovery"
        ~severity_from:(Verdict.severity prev_status)
        ~severity_to:(Verdict.severity v.status)
        ~at_period:(Rn_estimator.samples t.rn)
        ~at_bit:t.bits ~at_window:t.windows ~reasons:(reason_pairs v)
    | None -> ());
  T.Event_log.emit ~kind:"monitor"
    [
      ("what", T.Json.String "window");
      ("window", T.Json.Int t.windows);
      ("alarms", T.Json.num alarms);
      ("min_entropy", T.Json.num h);
      ("ewma", T.Json.num (Control_chart.ewma_value t.ewma));
      ("cusum_pos", T.Json.num (Control_chart.cusum_pos t.cusum));
    ];
  t.win_bits <- 0;
  t.win_ones <- 0;
  t.win_alarms <- 0

(* One segment per call, ending at or before the next window boundary:
   one recorder copy, one ones count and one run through each bit test,
   then [close_window] exactly where a per-bit feed would run it, so an
   incident freezes the same rings. *)
let feed_bits_unlocked t bs =
  let n = Array.length bs and pos = ref 0 in
  while !pos < n do
    let room = t.cfg.bit_window - t.win_bits in
    let len = if n - !pos < room then n - !pos else room in
    (match t.recorder with
    | Some r -> Flight_recorder.record_bits r bs ~pos:!pos ~len
    | None -> ());
    let ones = ref 0 in
    for i = !pos to !pos + len - 1 do
      ones := !ones + Bool.to_int (Array.unsafe_get bs i)
    done;
    t.bits <- t.bits + len;
    t.win_bits <- t.win_bits + len;
    t.win_ones <- t.win_ones + !ones;
    t.win_alarms <-
      t.win_alarms
      + Ptrng_sp90b.Health.monitor_feed_run t.sp bs ~pos:!pos ~len
      + Ptrng_ais31.Online.feed_run t.ais bs ~pos:!pos ~len;
    pos := !pos + len;
    if t.win_bits >= t.cfg.bit_window then close_window t
  done

let feed_jitter t x = Mutex.protect t.lock (fun () -> feed_jitter_unlocked t x)

let feed_jitter_array t xs =
  Mutex.protect t.lock (fun () -> Array.iter (feed_jitter_unlocked t) xs)

(* The two chunk entries take the lock by hand: [Mutex.protect] would
   build a fresh closure over [t]/[buf]/[len] on every call, and these
   are the only monitor entries on the zero-allocation hot path (R7). *)
let feed_jitter_chunk t buf ~len =
  Mutex.lock t.lock;
  (try
     (match t.recorder with
     | Some r -> Flight_recorder.record_jitter_chunk r buf ~len
     | None -> ());
     Rn_estimator.feed_many t.rn buf ~len;
     t.since_fit <- t.since_fit + len;
     if t.since_fit >= t.cfg.fit_stride then begin
       t.since_fit <- 0;
       refresh_fit t
     end
   with e ->
     Mutex.unlock t.lock;
     raise e);
  Mutex.unlock t.lock

let feed_bits t bs =
  Mutex.lock t.lock;
  (try feed_bits_unlocked t bs
   with e ->
     Mutex.unlock t.lock;
     raise e);
  Mutex.unlock t.lock

type snapshot = {
  t_s : float;
  periods : int;
  bits : int;
  windows : int;
  ready : bool;
  judge_n : int;
  confidence : float;
  r_judge : float;
  k_est : float;
  threshold_n : int;
  points : Ptrng_measure.Variance_curve.point array;
  rct_alarms : int;
  apt_alarms : int;
  ais31_alarms : int;
  ais31_blocks : int;
  alarm_rate : float;
  ewma_value : float;
  ewma_crossed : bool;
  cusum_pos : float;
  cusum_neg : float;
  cusum_crossed : bool;
  min_entropy : float;
  clean_streak : int;
  recoveries : int;
  windows_since_alarm : int;
  recent_r : float array;
  recent_entropy : float array;
  recent_alarms : float array;
  recent_since_alarm : float array;
  transitions : transition array;
  verdict : Verdict.t;
}

let snapshot_unlocked t =
  (* Pure read: the fit is recomputed locally instead of assigning
     [t.est], so a wall-clock-cadence dashboard poll cannot perturb
     the stride-driven verdict trajectory — the property the flight
     recorder's replay contract depends on. *)
  let est = Rn_estimator.estimate ~confidence:t.cfg.confidence t.rn in
  let rct_alarms, apt_alarms = Ptrng_sp90b.Health.monitor_alarms t.sp in
  let k_est, threshold_n =
    match est with
    | None -> (nan, max_int)
    | Some e -> (e.k, e.threshold_n)
  in
  let r_judge =
    match est with
    | None -> nan
    | Some e -> Rn_estimator.r_of_fit e.fit t.cfg.judge_n
  in
  let v = compute_verdict t ~est in
  publish_verdict v;
  {
    t_s = T.Clock.now ();
    periods = Rn_estimator.samples t.rn;
    bits = t.bits;
    windows = t.windows;
    ready = est <> None;
    judge_n = t.cfg.judge_n;
    confidence = t.cfg.confidence;
    r_judge;
    k_est;
    threshold_n;
    points = Rn_estimator.points t.rn;
    rct_alarms;
    apt_alarms;
    ais31_alarms = Ptrng_ais31.Online.alarms t.ais;
    ais31_blocks = Ptrng_ais31.Online.blocks t.ais;
    alarm_rate = t.last_alarm_rate;
    ewma_value = Control_chart.ewma_value t.ewma;
    ewma_crossed = Control_chart.ewma_crossed t.ewma;
    cusum_pos = Control_chart.cusum_pos t.cusum;
    cusum_neg = Control_chart.cusum_neg t.cusum;
    cusum_crossed = Control_chart.cusum_crossed t.cusum;
    min_entropy = t.last_entropy;
    clean_streak = t.clean_streak;
    recoveries = t.recoveries;
    windows_since_alarm = t.windows_since_alarm;
    recent_r = Window.to_array t.recent_r;
    recent_entropy = Window.to_array t.recent_entropy;
    recent_alarms = Window.to_array t.recent_alarms;
    recent_since_alarm = Window.to_array t.recent_since_alarm;
    transitions = Array.of_list (List.rev t.transitions);
    verdict = v;
  }

let snapshot t = Mutex.protect t.lock (fun () -> snapshot_unlocked t)

let health_json t =
  let s = snapshot t in
  let open T.Json in
  Obj
    [
      ("schema", String "ptrng-monitor-health/1");
      ("status", String (Verdict.status_string s.verdict.status));
      ( "reasons",
        List
          (List.map
             (fun (r : Verdict.reason) ->
               Obj
                 [
                   ("code", String r.code); ("detail", String r.detail);
                 ])
             s.verdict.reasons) );
      ("periods", Int s.periods);
      ("bits", Int s.bits);
      ("windows", Int s.windows);
      ("ready", Bool s.ready);
      ( "independence",
        Obj
          [
            ("n", Int s.judge_n);
            ("r_n", num s.r_judge);
            ("confidence", num s.confidence);
            ("k", num s.k_est);
            ( "threshold_n",
              if s.threshold_n = max_int then Null else Int s.threshold_n );
          ] );
      ( "alarms",
        Obj
          [
            ("rct", Int s.rct_alarms);
            ("apt", Int s.apt_alarms);
            ("ais31", Int s.ais31_alarms);
            ("ais31_blocks", Int s.ais31_blocks);
            ("rate", num s.alarm_rate);
          ] );
      ( "charts",
        Obj
          [
            ("ewma", num s.ewma_value);
            ("ewma_crossed", Bool s.ewma_crossed);
            ("cusum_pos", num s.cusum_pos);
            ("cusum_neg", num s.cusum_neg);
            ("cusum_crossed", Bool s.cusum_crossed);
          ] );
      ("min_entropy", num s.min_entropy);
      ( "recovery",
        Obj
          [
            ("clean_streak", Int s.clean_streak);
            ("recoveries", Int s.recoveries);
          ] );
    ]

let index_body =
  String.concat "\n"
    [
      "ptrng monitor";
      "";
      "  GET /               this index";
      "  GET /metrics        Prometheus text exposition of every metric";
      "  GET /health         current verdict with reasons \
       (ptrng-monitor-health/1)";
      "  GET /incidents      flight-recorder incident summaries \
       (ptrng-incidents/1)";
      "  GET /incidents/<n>  full frozen incident bundle n \
       (ptrng-incident/1)";
      "";
    ]

let incidents_index_json t =
  Mutex.protect t.lock (fun () ->
      let summaries =
        match t.recorder with
        | None -> []
        | Some r ->
          List.map (Flight_recorder.summary_json r) (Flight_recorder.incidents r)
      in
      T.Json.Obj
        [
          ("schema", T.Json.String "ptrng-incidents/1");
          ("count", T.Json.Int (List.length summaries));
          ("incidents", T.Json.List summaries);
        ])

let incident_body t id =
  Mutex.protect t.lock (fun () ->
      match t.recorder with
      | None -> None
      | Some r ->
        Option.map
          (fun i -> T.Json.to_string (Flight_recorder.incident_json r i) ^ "\n")
          (Flight_recorder.incident r id))

let incidents_prefix = "/incidents/"

let http_handler t path =
  match path with
  | "/metrics" ->
    Some
      (Http.response
         ~content_type:"text/plain; version=0.0.4; charset=utf-8"
         (T.Sink.to_prometheus ()))
  | "/health" ->
    Some
      (Http.response ~content_type:"application/json"
         (T.Json.to_string (health_json t) ^ "\n"))
  | "/incidents" ->
    Some
      (Http.response ~content_type:"application/json"
         (T.Json.to_string (incidents_index_json t) ^ "\n"))
  | "/" -> Some (Http.response index_body)
  | _ when String.starts_with ~prefix:incidents_prefix path -> (
    let rest =
      String.sub path
        (String.length incidents_prefix)
        (String.length path - String.length incidents_prefix)
    in
    match int_of_string_opt rest with
    | Some id when id >= 0 ->
      Option.map
        (fun body -> Http.response ~content_type:"application/json" body)
        (incident_body t id)
    | Some _ | None -> None)
  | _ -> None

let serve ?host ?port t = Http.start ?host ?port ~handler:(http_handler t) ()
