module Tm = Ptrng_telemetry.Registry

(* Running counters so a long acquisition campaign can be monitored
   mid-flight (scrape the registry) instead of waiting for the final
   boolean of each evaluation. *)
let runs_total =
  Tm.Counter.v ~help:"Online thermal-noise test evaluations."
    "ptrng_measure_online_runs_total"

let alarms_total =
  Tm.Counter.v ~help:"Online test evaluations that raised an alarm."
    "ptrng_measure_online_alarms_total"

let alarm_rate =
  Tm.Gauge.v ~help:"alarms_total / runs_total so far (0 when no run yet)."
    "ptrng_measure_online_alarm_rate"

let b_th_gauge =
  Tm.Gauge.v ~help:"Most recent estimated thermal coefficient b_th."
    "ptrng_measure_online_b_th_last"

type config = {
  ns : int array;
  windows : int;
  min_fraction : float;
}

type verdict = {
  b_th_est : float;
  sigma_est : float;
  floor_est : float;
  total_var_max_n : float;
  pass : bool;
}

let required_cycles cfg =
  Array.fold_left (fun acc n -> acc + (n * cfg.windows)) 0 cfg.ns

let check_config cfg =
  if Array.length cfg.ns < 4 then invalid_arg "Online_test: need >= 4 grid points";
  Array.iter (fun n -> if n <= 0 then invalid_arg "Online_test: non-positive N") cfg.ns;
  if cfg.windows < 8 then invalid_arg "Online_test: need >= 8 windows";
  if cfg.min_fraction <= 0.0 || cfg.min_fraction >= 1.0 then
    invalid_arg "Online_test: min_fraction outside (0,1)"

let windows_for_precision ~phase ~floor ~ns ~f0 ~rel_precision =
  if rel_precision <= 0.0 then invalid_arg "Online_test: rel_precision <= 0";
  if Array.length ns < 3 then invalid_arg "Online_test: need >= 3 grid points";
  let open Ptrng_noise.Psd_model in
  if phase.b_th <= 0.0 then invalid_arg "Online_test: b_th <= 0";
  let a = 2.0 *. phase.b_th /. f0 in
  let b = 8.0 *. log 2.0 *. phase.b_fl /. (f0 *. f0) in
  (* Weighted normal equations with unit window count; sigma(a) then
     scales as 1/sqrt(W/2). *)
  let xtx = Ptrng_stats.Matrix.create ~rows:3 ~cols:3 in
  Array.iter
    (fun n ->
      let fn = float_of_int n in
      let v = floor +. (a *. fn) +. (b *. fn *. fn) in
      let var1 = 2.0 *. v *. v in
      let cols = [| fn; fn *. fn; 1.0 |] in
      for i = 0 to 2 do
        for j = 0 to 2 do
          Ptrng_stats.Matrix.set xtx i j
            (Ptrng_stats.Matrix.get xtx i j +. (cols.(i) *. cols.(j) /. var1))
        done
      done)
    ns;
  let cov = Ptrng_stats.Matrix.inverse xtx in
  let sigma_a_w2 = sqrt (Ptrng_stats.Matrix.get cov 0 0) in
  (* Var(a) at W windows is Var(a)|_{neff=1} / (W/2). *)
  let needed = 2.0 *. (sigma_a_w2 /. (rel_precision *. a)) ** 2.0 in
  int_of_float (Float.ceil needed)

let run cfg ~f0 ~reference_b_th ~edges1 ~edges2 =
  check_config cfg;
  if f0 <= 0.0 then invalid_arg "Online_test.run: f0 <= 0";
  if reference_b_th <= 0.0 then invalid_arg "Online_test.run: reference_b_th <= 0";
  let points =
    Array.map
      (fun n ->
        let available = (Array.length edges2 - 1) / n in
        if available < cfg.windows then
          invalid_arg "Online_test.run: edge stream too short for the grid";
        (* A real on-line block test works on a fixed window budget. *)
        let edges2 = Array.sub edges2 0 ((cfg.windows * n) + 1) in
        let curve = Variance_curve.of_counters ~f0 ~ns:[| n |] edges1 edges2 in
        if Array.length curve <> 1 then
          invalid_arg "Online_test.run: edge stream too short for the grid";
        curve.(0))
      cfg.ns
  in
  let fit = Fit.fit ~with_floor:true ~f0 points in
  let phase = Fit.phase_of fit in
  let b_th_est = phase.Ptrng_noise.Psd_model.b_th in
  let sigma_est = if b_th_est > 0.0 then sqrt (b_th_est /. (f0 ** 3.0)) else 0.0 in
  let last = points.(Array.length points - 1) in
  let pass = b_th_est >= cfg.min_fraction *. reference_b_th in
  if !Tm.on then begin
    Tm.Counter.incr runs_total;
    if not pass then Tm.Counter.incr alarms_total;
    Tm.Gauge.set alarm_rate
      (float_of_int (Tm.Counter.value alarms_total)
      /. float_of_int (Tm.Counter.value runs_total));
    Tm.Gauge.set b_th_gauge b_th_est;
    Ptrng_telemetry.Event_log.emit ~kind:"online_test"
      [
        ("b_th_est", Ptrng_telemetry.Json.num b_th_est);
        ("pass", Ptrng_telemetry.Json.Bool pass);
      ]
  end;
  {
    b_th_est;
    sigma_est;
    floor_est = fit.c;
    total_var_max_n = last.Variance_curve.scaled;
    pass;
  }
