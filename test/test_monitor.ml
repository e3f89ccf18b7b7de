(* The live observatory: windows, control charts, the streaming r_N
   estimator against the paper's closed form, verdict/health JSON
   round-trips, and an HTTP smoke test on an ephemeral port. *)

module M = Ptrng_monitor
module Tm = Ptrng_telemetry

let paper_f0 = Ptrng_osc.Pair.paper_f0

let gaussian rng =
  (* Box-Muller is enough for test data. *)
  let u1 = Ptrng_prng.Rng.float_pos rng and u2 = Ptrng_prng.Rng.float rng in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* ------------------------------------------------------------------ *)
(* Window                                                              *)
(* ------------------------------------------------------------------ *)

let window_tests =
  [
    Testkit.case "mean/variance match the closed form" (fun () ->
        let w = M.Window.create ~capacity:8 in
        List.iter (M.Window.push w) [ 1.0; 2.0; 3.0; 4.0 ];
        Alcotest.(check int) "count" 4 (M.Window.count w);
        Testkit.check_abs ~tol:1e-12 "mean" 2.5 (M.Window.mean w);
        Testkit.check_abs ~tol:1e-12 "variance" (5.0 /. 3.0) (M.Window.variance w);
        Testkit.check_abs ~tol:1e-12 "last" 4.0 (M.Window.last w));
    Testkit.case "eviction keeps the newest samples in order" (fun () ->
        let w = M.Window.create ~capacity:3 in
        List.iter (M.Window.push w) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
        Alcotest.(check int) "count" 3 (M.Window.count w);
        Alcotest.(check int) "lifetime total" 5 (M.Window.total w);
        Testkit.check_true "oldest first"
          (M.Window.to_array w = [| 3.0; 4.0; 5.0 |]));
    Testkit.case "non-finite samples are dropped" (fun () ->
        let w = M.Window.create ~capacity:4 in
        List.iter (M.Window.push w) [ 1.0; nan; infinity; 2.0 ];
        Alcotest.(check int) "count" 2 (M.Window.count w);
        Testkit.check_abs ~tol:1e-12 "mean" 1.5 (M.Window.mean w));
    Testkit.case "wraparound exactly at capacity" (fun () ->
        (* The push that lands precisely on the capacity boundary must
           still retain everything; only the next one evicts. *)
        let w = M.Window.create ~capacity:4 in
        List.iter (M.Window.push w) [ 1.0; 2.0; 3.0; 4.0 ];
        Alcotest.(check int) "full at capacity" 4 (M.Window.count w);
        Testkit.check_true "all retained in order"
          (M.Window.to_array w = [| 1.0; 2.0; 3.0; 4.0 |]);
        Testkit.check_abs ~tol:1e-12 "mean over the full ring" 2.5
          (M.Window.mean w);
        M.Window.push w 5.0;
        Alcotest.(check int) "count pinned at capacity" 4 (M.Window.count w);
        Alcotest.(check int) "lifetime total keeps counting" 5
          (M.Window.total w);
        Testkit.check_true "oldest evicted on the wrap"
          (M.Window.to_array w = [| 2.0; 3.0; 4.0; 5.0 |]);
        Testkit.check_abs ~tol:1e-12 "last survives the wrap" 5.0
          (M.Window.last w));
    Testkit.case "statistics are bitwise the oldest-first sums" (fun () ->
        (* Every head position, before and after the ring wraps: the
           two-range walk must add in the order of a plain fold. *)
        let cap = 7 in
        let w = M.Window.create ~capacity:cap in
        let rng = Testkit.rng ~seed:5L () in
        let pushed = ref [] in
        for step = 1 to 4 * cap do
          let x = 1e-3 *. gaussian rng in
          M.Window.push w x;
          pushed := x :: !pushed;
          let held = List.filteri (fun i _ -> i < cap) !pushed |> List.rev in
          let n = float_of_int (List.length held) in
          let mean = List.fold_left ( +. ) 0.0 held /. n in
          let var =
            List.fold_left (fun s x -> s +. ((x -. mean) *. (x -. mean))) 0.0 held
            /. (n -. 1.0)
          in
          let hex = Printf.sprintf "%h" in
          let name what = Printf.sprintf "%s after %d pushes" what step in
          Testkit.check_true (name "to_array") (M.Window.to_array w = Array.of_list held);
          Alcotest.(check string) (name "mean") (hex mean) (hex (M.Window.mean w));
          if step >= 2 then
            Alcotest.(check string) (name "variance") (hex var)
              (hex (M.Window.variance w))
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Control charts                                                      *)
(* ------------------------------------------------------------------ *)

let chart_tests =
  [
    Testkit.case "EWMA stays quiet in control, flags a burst" (fun () ->
        let e = M.Control_chart.ewma_create ~mean:0.0 ~sigma:1.0 () in
        for _ = 1 to 200 do
          Testkit.check_false "in control" (M.Control_chart.ewma_feed e 0.0)
        done;
        Testkit.check_false "never crossed" (M.Control_chart.ewma_crossed e);
        Testkit.check_true "burst alarms" (M.Control_chart.ewma_feed e 30.0);
        Testkit.check_true "crossing is sticky"
          (M.Control_chart.ewma_crossed e));
    Testkit.case "EWMA recursion matches the textbook update" (fun () ->
        let e =
          M.Control_chart.ewma_create ~lambda:0.25 ~mean:1.0 ~sigma:1.0 ()
        in
        ignore (M.Control_chart.ewma_feed e 3.0);
        (* z1 = (1 - 0.25) * 1.0 + 0.25 * 3.0 *)
        Testkit.check_abs ~tol:1e-12 "one step" 1.5 (M.Control_chart.ewma_value e);
        ignore (M.Control_chart.ewma_feed e 3.0);
        Testkit.check_abs ~tol:1e-12 "two steps" 1.875
          (M.Control_chart.ewma_value e));
    Testkit.case "CUSUM accumulates a sustained small shift" (fun () ->
        let c = M.Control_chart.cusum_create ~k:0.5 ~h:5.0 ~mean:0.0 ~sigma:1.0 () in
        (* A one-sigma shift: each step adds 1 - 0.5 to S+; the
           decision interval h = 5 is reached on the tenth step. *)
        let alarm_step = ref 0 in
        for i = 1 to 20 do
          if M.Control_chart.cusum_feed c 1.0 && !alarm_step = 0 then
            alarm_step := i
        done;
        Alcotest.(check int) "detected on step 11" 11 !alarm_step;
        Testkit.check_true "sticky" (M.Control_chart.cusum_crossed c));
    Testkit.case "CUSUM ignores in-control noise, reset clears it" (fun () ->
        let c = M.Control_chart.cusum_create ~mean:0.0 ~sigma:1.0 () in
        let rng = Testkit.rng () in
        for _ = 1 to 500 do
          ignore
            (M.Control_chart.cusum_feed c
               (Ptrng_prng.Rng.float rng -. 0.5))
        done;
        Testkit.check_false "no alarm on noise" (M.Control_chart.cusum_crossed c);
        ignore (M.Control_chart.cusum_feed c 50.0);
        Testkit.check_true "burst alarms" (M.Control_chart.cusum_crossed c);
        M.Control_chart.cusum_reset c;
        Testkit.check_false "reset clears" (M.Control_chart.cusum_crossed c);
        Testkit.check_abs ~tol:1e-12 "sums zeroed" 0.0 (M.Control_chart.cusum_pos c));
    Testkit.case "EWMA reset, clear_crossed and decay" (fun () ->
        let e = M.Control_chart.ewma_create ~mean:2.0 ~sigma:1.0 () in
        ignore (M.Control_chart.ewma_feed e 50.0);
        Testkit.check_true "crossed" (M.Control_chart.ewma_crossed e);
        let v = M.Control_chart.ewma_value e in
        M.Control_chart.ewma_clear_crossed e;
        Testkit.check_false "flag cleared" (M.Control_chart.ewma_crossed e);
        Testkit.check_abs ~tol:1e-12 "statistic kept" v
          (M.Control_chart.ewma_value e);
        M.Control_chart.ewma_decay e ~keep:0.5;
        (* Departure from the in-control mean halves. *)
        Testkit.check_abs ~tol:1e-12 "decayed halfway"
          (2.0 +. (0.5 *. (v -. 2.0)))
          (M.Control_chart.ewma_value e);
        M.Control_chart.ewma_reset e;
        Testkit.check_abs ~tol:1e-12 "reset to mean" 2.0
          (M.Control_chart.ewma_value e);
        Alcotest.check_raises "decay rejects keep > 1"
          (Invalid_argument "Control_chart.ewma_decay: keep outside [0,1]")
          (fun () -> M.Control_chart.ewma_decay e ~keep:1.5));
    Testkit.case "CUSUM clear_crossed and decay" (fun () ->
        let c = M.Control_chart.cusum_create ~mean:0.0 ~sigma:1.0 () in
        ignore (M.Control_chart.cusum_feed c 50.0);
        Testkit.check_true "crossed" (M.Control_chart.cusum_crossed c);
        let s = M.Control_chart.cusum_pos c in
        M.Control_chart.cusum_clear_crossed c;
        Testkit.check_false "flag cleared" (M.Control_chart.cusum_crossed c);
        Testkit.check_abs ~tol:1e-12 "sum kept" s (M.Control_chart.cusum_pos c);
        M.Control_chart.cusum_decay c ~keep:0.25;
        Testkit.check_abs ~tol:1e-12 "sum quartered" (0.25 *. s)
          (M.Control_chart.cusum_pos c);
        Alcotest.check_raises "decay rejects negative keep"
          (Invalid_argument "Control_chart.cusum_decay: keep outside [0,1]")
          (fun () -> M.Control_chart.cusum_decay c ~keep:(-0.1)));
  ]

(* ------------------------------------------------------------------ *)
(* Streaming r_N estimator                                             *)
(* ------------------------------------------------------------------ *)

let rn_tests =
  [
    Testkit.case "second-difference realizations match hand computation" (fun () ->
        let e =
          M.Rn_estimator.create ~ns:[| 2 |] ~realizations:4 ~min_realizations:2
            ~f0:1.0 ()
        in
        (* Two disjoint realizations over 2N = 4 samples each:
           (3+4)-(1+2) = 4 and (9+16)-(5+7) = 13. *)
        List.iter (M.Rn_estimator.feed e) [ 1.0; 2.0; 3.0; 4.0; 5.0; 7.0; 9.0; 16.0 ];
        let pts = M.Rn_estimator.points e in
        Alcotest.(check int) "one grid point" 1 (Array.length pts);
        Alcotest.(check int) "two realizations" 2 pts.(0).neff;
        (* Sample variance of {4, 13}. *)
        Testkit.check_abs ~tol:1e-9 "sigma2" 40.5 pts.(0).sigma2);
    Testkit.case "white jitter reproduces sigma_N^2 = 2 N sigma^2" (fun () ->
        let sigma = 1.5e-12 in
        let ns = [| 4; 8; 16; 64 |] in
        let e =
          M.Rn_estimator.create ~ns ~realizations:512 ~min_realizations:64
            ~f0:paper_f0 ()
        in
        let rng = Testkit.rng ~seed:42L () in
        for _ = 1 to 1 lsl 17 do
          M.Rn_estimator.feed e (sigma *. gaussian rng)
        done;
        let pts = M.Rn_estimator.points e in
        Alcotest.(check int) "all grid points ready" 4 (Array.length pts);
        Array.iter
          (fun (p : Ptrng_measure.Variance_curve.point) ->
            Testkit.check_rel ~tol:0.3
              (Printf.sprintf "sigma2 at N=%d" p.n)
              (2.0 *. float_of_int p.n *. sigma *. sigma)
              p.sigma2)
          pts;
        match M.Rn_estimator.estimate e with
        | None -> Alcotest.fail "estimate not ready"
        | Some est ->
          (* Thermal-only truth: a = 2 sigma^2 f0^2, negligible b. *)
          Testkit.check_rel ~tol:0.15 "fitted a"
            (2.0 *. sigma *. sigma *. paper_f0 *. paper_f0)
            est.fit.a;
          Testkit.check_true "r_8 near 1"
            (M.Rn_estimator.r_of_fit est.fit 8 > 0.95));
    Testkit.case "r_of_fit matches the paper's closed form k/(k+N)" (fun () ->
        let a = 5.36e-6 in
        let k = 5354.0 in
        let fit =
          { Ptrng_measure.Fit.a; b = a /. k; c = 0.0; d = 0.0; a_se = 0.0;
            b_se = 0.0; c_se = nan; d_se = nan; chi2 = 0.0; dof = 0;
            f0 = paper_f0 }
        in
        List.iter
          (fun n ->
            Testkit.check_rel ~tol:1e-9
              (Printf.sprintf "r at N=%d" n)
              (k /. (k +. float_of_int n))
              (M.Rn_estimator.r_of_fit fit n))
          [ 1; 10; 100; 281; 1000; 5354 ];
        (* The paper's 95% independence threshold. *)
        Testkit.check_in_range "r_281 straddles 95%" ~lo:0.95 ~hi:0.9502
          (M.Rn_estimator.r_of_fit fit 281);
        Testkit.check_true "r_282 below"
          (M.Rn_estimator.r_of_fit fit 282 < 0.95));
  ]

(* ------------------------------------------------------------------ *)
(* Verdict                                                             *)
(* ------------------------------------------------------------------ *)

let verdict_tests =
  [
    Testkit.case "aggregation: empty ok, failing escalates" (fun () ->
        Testkit.check_true "empty is ok"
          ((M.Verdict.make [] ~failing:(fun _ -> true)).status = M.Verdict.Ok);
        let r = { M.Verdict.code = "x"; detail = "d" } in
        Testkit.check_true "reason degrades"
          ((M.Verdict.make [ r ] ~failing:(fun _ -> false)).status
          = M.Verdict.Degraded);
        Testkit.check_true "failing predicate escalates"
          ((M.Verdict.make [ r ] ~failing:(fun _ -> true)).status
          = M.Verdict.Failing));
    Testkit.case "JSON round-trip" (fun () ->
        let v =
          M.Verdict.make
            [
              { M.Verdict.code = "independence"; detail = "r low" };
              { M.Verdict.code = "cusum"; detail = "S+ = 7" };
            ]
            ~failing:(fun r -> r.M.Verdict.code = "cusum")
        in
        match M.Verdict.of_json (Tm.Json.of_string
                                   (Tm.Json.to_string (M.Verdict.to_json v)))
        with
        | Some v' -> Testkit.check_true "identical" (v = v')
        | None -> Alcotest.fail "round-trip lost the verdict");
  ]

(* ------------------------------------------------------------------ *)
(* Monitor end to end                                                  *)
(* ------------------------------------------------------------------ *)

(* Small grid so the tests converge in thousands of samples. *)
let test_config () =
  {
    (M.Monitor.default_config ~f0:paper_f0) with
    ns = [| 4; 8; 16; 64 |];
    realizations = 256;
    min_realizations = 32;
    judge_n = 8;
    fit_stride = 4096;
    h_claim = 0.9;
    bit_window = 64;
    ais31_block = 128;
    history = 16;
  }

let feed_white mon rng ~samples ~sigma =
  for _ = 1 to samples do
    M.Monitor.feed_jitter mon (sigma *. gaussian rng)
  done

let feed_fair_bits mon rng ~bits =
  for _ = 1 to bits do
    M.Monitor.feed_bits mon [| Ptrng_prng.Rng.bool rng |]
  done

let monitor_tests =
  [
    Testkit.case "healthy streams end with verdict ok" (fun () ->
        let mon = M.Monitor.create (test_config ()) in
        let rng = Testkit.rng ~seed:7L () in
        feed_white mon rng ~samples:(1 lsl 16) ~sigma:1e-12;
        feed_fair_bits mon rng ~bits:4096;
        let s = M.Monitor.snapshot mon in
        Testkit.check_true "ready" s.ready;
        Testkit.check_true "independent regime" (s.r_judge >= 0.95);
        Alcotest.(check int) "windows closed" 64 s.windows;
        Testkit.check_true "entropy healthy" (s.min_entropy > 0.8);
        Testkit.check_false "no chart alarm" (s.ewma_crossed || s.cusum_crossed);
        Testkit.check_true "verdict ok" (s.verdict.status = M.Verdict.Ok));
    Testkit.case "alarm burst crosses the CUSUM and degrades the verdict"
      (fun () ->
        let mon = M.Monitor.create (test_config ()) in
        let rng = Testkit.rng ~seed:8L () in
        feed_white mon rng ~samples:(1 lsl 16) ~sigma:1e-12;
        feed_fair_bits mon rng ~bits:2048;
        Testkit.check_true "healthy before the burst"
          ((M.Monitor.snapshot mon).verdict.status = M.Verdict.Ok);
        (* A stuck-at-one source: RCT/APT and the online monobit all
           fire, the per-window alarm counts shift, the CUSUM crosses. *)
        for _ = 1 to 4096 do
          M.Monitor.feed_bits mon [| true |]
        done;
        let s = M.Monitor.snapshot mon in
        Testkit.check_true "rct fired" (s.rct_alarms > 0);
        Testkit.check_true "apt fired" (s.apt_alarms > 0);
        Testkit.check_true "monobit fired" (s.ais31_alarms > 0);
        Testkit.check_true "cusum crossed" (s.cusum_crossed);
        Testkit.check_true "verdict flipped"
          (s.verdict.status <> M.Verdict.Ok);
        Testkit.check_true "cusum reason present"
          (List.exists
             (fun (r : M.Verdict.reason) -> r.code = "cusum")
             s.verdict.reasons));
    Testkit.slow_case "flicker-dominated source degrades via independence"
      (fun () ->
        (* The paper's attack scenario: quench the thermal noise so the
           flicker term dominates, k = a/b collapses from 5354 to a few
           hundred, and the live r_N falls out of the regime. *)
        let cfg =
          {
            (M.Monitor.default_config ~f0:paper_f0) with
            ns = [| 8; 32; 128; 256 |];
            realizations = 128;
            min_realizations = 16;
            judge_n = 64;
            fit_stride = 16384;
          }
        in
        let mon = M.Monitor.create cfg in
        let pair =
          Ptrng_trng.Attack.thermal_quench ~factor:0.05
            (Ptrng_osc.Pair.paper_pair ())
        in
        let rng = Ptrng_prng.Rng.create ~seed:2014L () in
        let chunk = 1 lsl 16 in
        for _ = 1 to 5 do
          let p1, p2 = Ptrng_osc.Pair.simulate rng pair ~n:chunk in
          M.Monitor.feed_jitter_array mon
            (Array.init chunk (fun i -> p1.(i) -. p2.(i)))
        done;
        let s = M.Monitor.snapshot mon in
        Testkit.check_true "ready" s.ready;
        Testkit.check_true "r collapsed" (s.r_judge < 0.95);
        Testkit.check_true "degraded" (s.verdict.status = M.Verdict.Degraded);
        Testkit.check_true "independence reason"
          (List.exists
             (fun (r : M.Verdict.reason) -> r.code = "independence")
             s.verdict.reasons));
    Testkit.case "fail-safe recovery walks the verdict back to ok" (fun () ->
        let mon =
          M.Monitor.create { (test_config ()) with recovery_windows = 2 }
        in
        let rng = Testkit.rng ~seed:21L () in
        feed_white mon rng ~samples:(1 lsl 16) ~sigma:1e-12;
        feed_fair_bits mon rng ~bits:2048;
        Testkit.check_true "healthy before the burst"
          ((M.Monitor.snapshot mon).verdict.status = M.Verdict.Ok);
        for _ = 1 to 1024 do
          M.Monitor.feed_bits mon [| true |]
        done;
        let s = M.Monitor.snapshot mon in
        Testkit.check_true "burst degrades" (s.verdict.status <> M.Verdict.Ok);
        Testkit.check_true "cusum latched" s.cusum_crossed;
        (* A clean tail: the de-escalation streaks forgive the charts
           one level at a time until the verdict is ok again. *)
        feed_fair_bits mon rng ~bits:4096;
        let s = M.Monitor.snapshot mon in
        Testkit.check_true "verdict recovered" (s.verdict.status = M.Verdict.Ok);
        Testkit.check_true "de-escalations granted" (s.recoveries >= 1);
        Testkit.check_false "charts forgiven"
          (s.ewma_crossed || s.cusum_crossed));
    Testkit.case "recovery_windows = 0 disables de-escalation" (fun () ->
        let mon =
          M.Monitor.create { (test_config ()) with recovery_windows = 0 }
        in
        let rng = Testkit.rng ~seed:22L () in
        feed_white mon rng ~samples:(1 lsl 16) ~sigma:1e-12;
        feed_fair_bits mon rng ~bits:1024;
        for _ = 1 to 1024 do
          M.Monitor.feed_bits mon [| true |]
        done;
        feed_fair_bits mon rng ~bits:4096;
        let s = M.Monitor.snapshot mon in
        Testkit.check_true "still latched" (s.cusum_crossed);
        Testkit.check_true "never forgiven" (s.recoveries = 0);
        Testkit.check_true "verdict stays non-ok"
          (s.verdict.status <> M.Verdict.Ok));
    Testkit.case "refit lands exactly on the fit_stride boundary" (fun () ->
        (* test_config refits every 4096 jitter samples.  A feed count
           one short of the stride must not refit; the sample landing
           precisely on it must. *)
        let mon = M.Monitor.create (test_config ()) in
        let rng = Testkit.rng ~seed:23L () in
        feed_white mon rng ~samples:8192 ~sigma:1e-12;
        let refits () =
          Array.length (M.Monitor.snapshot mon).M.Monitor.recent_r
        in
        let base = refits () in
        Testkit.check_true "estimator ready after warm-up" (base >= 1);
        feed_white mon rng ~samples:4095 ~sigma:1e-12;
        Alcotest.(check int) "one short of the stride: no refit" base
          (refits ());
        feed_white mon rng ~samples:1 ~sigma:1e-12;
        Alcotest.(check int) "landing on the stride refits" (base + 1)
          (refits ());
        feed_white mon rng ~samples:4096 ~sigma:1e-12;
        Alcotest.(check int) "next full stride refits again" (base + 2)
          (refits ()));
    Testkit.case "health JSON round-trips and carries the verdict" (fun () ->
        let mon = M.Monitor.create (test_config ()) in
        let rng = Testkit.rng ~seed:9L () in
        feed_white mon rng ~samples:(1 lsl 15) ~sigma:1e-12;
        feed_fair_bits mon rng ~bits:1024;
        let j =
          Tm.Json.of_string (Tm.Json.to_string (M.Monitor.health_json mon))
        in
        (match Tm.Json.member "schema" j with
        | Some (Tm.Json.String "ptrng-monitor-health/1") -> ()
        | _ -> Alcotest.fail "schema tag lost");
        (match M.Verdict.of_json j with
        | Some v ->
          Testkit.check_true "verdict parses back"
            (v.status = (M.Monitor.snapshot mon).verdict.status)
        | None -> Alcotest.fail "verdict not parseable from /health");
        (match Tm.Json.member "independence" j with
        | Some ind -> (
          match Tm.Json.member "r_n" ind with
          | Some r ->
            Testkit.check_true "r_n serialized"
              (Option.is_some (Tm.Json.to_float r))
          | None -> Alcotest.fail "no r_n field")
        | None -> Alcotest.fail "no independence object"));
  ]

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let fr_prov =
  {
    M.Flight_recorder.kind = "test";
    workload = "unit";
    seed = 1;
    divisor = 10;
    chunk = 16;
    flicker_block = 16;
  }

let fr_config ?(post_windows = 0) ?(max_incidents = 2) () =
  {
    M.Flight_recorder.jitter_capacity = 4;
    bit_capacity = 4;
    window_capacity = 4;
    post_windows;
    max_incidents;
  }

let fr_trigger ?(at_period = 0) r =
  M.Flight_recorder.note_trigger r ~direction:"escalation" ~severity_from:0
    ~severity_to:1 ~at_period ~at_bit:0 ~at_window:0
    ~reasons:[ ("independence", "test trigger") ]

let recorder_tests =
  [
    Testkit.case "capacities are validated" (fun () ->
        Alcotest.check_raises "zero jitter ring"
          (Invalid_argument "Flight_recorder.create: jitter_capacity < 1")
          (fun () ->
            ignore
              (M.Flight_recorder.create
                 ~config:{ (fr_config ()) with jitter_capacity = 0 }
                 ~provenance:fr_prov ()));
        Alcotest.check_raises "negative post windows"
          (Invalid_argument "Flight_recorder.create: post_windows < 0")
          (fun () ->
            ignore
              (M.Flight_recorder.create
                 ~config:{ (fr_config ()) with post_windows = -1 }
                 ~provenance:fr_prov ())));
    Testkit.case "jitter ring wraps; freeze keeps the newest with its start"
      (fun () ->
        let r =
          M.Flight_recorder.create ~config:(fr_config ()) ~provenance:fr_prov ()
        in
        for i = 0 to 9 do
          M.Flight_recorder.record_jitter r (float_of_int i)
        done;
        M.Flight_recorder.record_bits r [| true; false |] ~pos:0 ~len:2;
        fr_trigger ~at_period:10 r;
        Alcotest.(check int) "post_windows = 0 freezes immediately" 1
          (M.Flight_recorder.incident_count r);
        let inc = Option.get (M.Flight_recorder.incident r 0) in
        let j = M.Flight_recorder.incident_json r inc in
        let capture = Option.get (Tm.Json.member "capture" j) in
        (match Tm.Json.member "jitter_start" capture with
        | Some (Tm.Json.Int 6) -> ()
        | _ -> Alcotest.fail "jitter_start should be total - capacity = 6");
        (match Tm.Json.member "jitter" capture with
        | Some (Tm.Json.List l) ->
          Testkit.check_true "newest four samples in order"
            (List.map Tm.Json.to_float l
            = [ Some 6.0; Some 7.0; Some 8.0; Some 9.0 ])
        | _ -> Alcotest.fail "no jitter payload");
        (match Tm.Json.member "bits" capture with
        | Some (Tm.Json.String "10") -> ()
        | _ -> Alcotest.fail "bit ring should freeze to \"10\""));
    Testkit.case "post_windows countdown, re-arm suppression, max_incidents"
      (fun () ->
        let r =
          M.Flight_recorder.create
            ~config:(fr_config ~post_windows:2 ())
            ~provenance:fr_prov ()
        in
        fr_trigger r;
        Alcotest.(check int) "armed, not yet frozen" 0
          (M.Flight_recorder.incident_count r);
        fr_trigger r (* ignored while armed *);
        M.Flight_recorder.tick_window r;
        Alcotest.(check int) "one window of post context" 0
          (M.Flight_recorder.incident_count r);
        M.Flight_recorder.tick_window r;
        Alcotest.(check int) "frozen after post_windows ticks" 1
          (M.Flight_recorder.incident_count r);
        fr_trigger r;
        M.Flight_recorder.tick_window r;
        M.Flight_recorder.tick_window r;
        Alcotest.(check int) "second incident frozen" 2
          (M.Flight_recorder.incident_count r);
        fr_trigger r (* over max_incidents = 2: dropped *);
        M.Flight_recorder.tick_window r;
        M.Flight_recorder.tick_window r;
        Alcotest.(check int) "retention capped at max_incidents" 2
          (M.Flight_recorder.incident_count r);
        Testkit.check_true "ids are stable"
          (M.Flight_recorder.incident_id
             (Option.get (M.Flight_recorder.incident r 1))
          = 1));
    Testkit.case "bundle JSON reparses to identical bytes" (fun () ->
        let r =
          M.Flight_recorder.create ~config:(fr_config ()) ~provenance:fr_prov ()
        in
        M.Flight_recorder.set_monitor_config r
          (M.Monitor.config_json (test_config ()));
        for i = 0 to 7 do
          M.Flight_recorder.record_jitter r (float_of_int i *. 0.125)
        done;
        M.Flight_recorder.record_window r ~index:0 ~alarms:1 ~min_entropy:0.93
          ~ewma:0.5 ~cusum_pos:1.25 ~r_n:0.97 ~severity:0;
        M.Flight_recorder.record_transition r ~at_window:0 ~at_period:80
          ~at_bit:8 ~severity_from:0 ~severity_to:1;
        fr_trigger ~at_period:80 r;
        let inc = Option.get (M.Flight_recorder.incident r 0) in
        let s =
          Tm.Json.to_string (M.Flight_recorder.incident_json r inc)
        in
        Alcotest.(check string) "parse . print is the identity" s
          (Tm.Json.to_string (Tm.Json.of_string s));
        (match Tm.Json.member "schema" (Tm.Json.of_string s) with
        | Some (Tm.Json.String "ptrng-incident/1") -> ()
        | _ -> Alcotest.fail "schema tag missing");
        let summary = M.Flight_recorder.summary_json r inc in
        match Tm.Json.member "schema" summary with
        | Some (Tm.Json.String "ptrng-incident-summary/1") -> ()
        | _ -> Alcotest.fail "summary schema tag missing");
  ]

(* ------------------------------------------------------------------ *)
(* Chunked feeds against the per-sample references                     *)
(* ------------------------------------------------------------------ *)

let hex_points e =
  Array.map
    (fun (p : Ptrng_measure.Variance_curve.point) ->
      Printf.sprintf "%d %d %h %h %h" p.n p.neff p.sigma2 p.scaled p.stderr)
    (M.Rn_estimator.points e)

let check_estimators name ~reference e =
  Alcotest.(check int) (name ^ ": samples") (M.Rn_estimator.samples reference)
    (M.Rn_estimator.samples e);
  Alcotest.(check (array string)) (name ^ ": points") (hex_points reference)
    (hex_points e)

(* Gaussian jitter with NaN and +-inf scattered through it. *)
let dirty_jitter rng n =
  Array.init n (fun _ ->
      match Ptrng_prng.Rng.int_below rng 64 with
      | 0 -> nan
      | 1 -> infinity
      | 2 -> neg_infinity
      | _ -> 1e-12 *. gaussian rng)

(* Bit streams of the four shapes the run functions must not care about. *)
let bit_streams rng n =
  [
    ("fair", Array.init n (fun _ -> Ptrng_prng.Rng.bool rng));
    ("all-ones", Array.make n true);
    ("alternating", Array.init n (fun i -> i land 1 = 0));
    ("70%-biased", Array.init n (fun _ -> Ptrng_prng.Rng.float rng < 0.7));
  ]

(* [f pos len] over consecutive random pieces of [0, n), lengths 0..max. *)
let random_split rng n ~max f =
  let pos = ref 0 in
  while !pos < n do
    let len = Stdlib.min (n - !pos) (Ptrng_prng.Rng.int_below rng (max + 1)) in
    f !pos len;
    pos := !pos + len
  done

let health_state m =
  (Ptrng_sp90b.Health.monitor_samples m, Ptrng_sp90b.Health.monitor_alarms m)

let popcount_flags f = (f land 1) + ((f lsr 1) land 1)

let counter name = Tm.Registry.Counter.value (Tm.Registry.Counter.v name)

let health_counters () =
  List.map counter
    [
      "ptrng_sp90b_health_samples_total"; "ptrng_sp90b_rct_alarms_total";
      "ptrng_sp90b_apt_alarms_total";
    ]

let test_recorder () =
  M.Flight_recorder.create
    ~config:
      {
        M.Flight_recorder.jitter_capacity = 7;
        bit_capacity = 7;
        window_capacity = 4;
        post_windows = 0;
        max_incidents = 64;
      }
    ~provenance:fr_prov ()

let freeze_last r =
  fr_trigger r;
  let inc =
    Option.get (M.Flight_recorder.incident r (M.Flight_recorder.incident_count r - 1))
  in
  Tm.Json.to_string (M.Flight_recorder.incident_json r inc)

(* A monitor with a recorder small enough that incidents capture only
   the newest windows, fed ready jitter and then [feed] over an
   escalating bit stream (fair, stuck, fair, biased, fair). *)
let escalating_bits rng =
  let fair n = Array.init n (fun _ -> Ptrng_prng.Rng.bool rng) in
  Array.concat
    [
      fair 1024; Array.make 700 true; fair 1500;
      Array.init 900 (fun _ -> Ptrng_prng.Rng.float rng < 0.9); fair 1700;
    ]

let split_monitor ~jitter feed =
  let mon = M.Monitor.create { (test_config ()) with recovery_windows = 3 } in
  let r =
    M.Flight_recorder.create
      ~config:
        {
          M.Flight_recorder.jitter_capacity = 256;
          bit_capacity = 200;
          window_capacity = 8;
          post_windows = 2;
          max_incidents = 8;
        }
      ~provenance:fr_prov ()
  in
  M.Monitor.attach_recorder mon r;
  M.Monitor.feed_jitter_array mon jitter;
  feed mon;
  let snap = M.Monitor.snapshot mon in
  ( { snap with t_s = 0.0 },
    Tm.Json.to_string (M.Monitor.health_json mon),
    List.map
      (fun i -> Tm.Json.to_string (M.Flight_recorder.incident_json r i))
      (M.Flight_recorder.incidents r) )

let equivalence_tests =
  [
    Testkit.case "feed_many is bitwise per-sample feed" (fun () ->
        let grids =
          [
            [| 3 |]; [| 2; 5; 16 |]; [| 4; 8; 16; 64 |]; [| 1; 2; 3; 17; 64 |];
            [| 1; 2; 3; 5; 8; 13; 21; 34 |];
          ]
        in
        List.iter
          (fun ns ->
            let name = Printf.sprintf "%d slots" (Array.length ns) in
            let create () =
              M.Rn_estimator.create ~ns ~realizations:16 ~min_realizations:2
                ~f0:1.0 ()
            in
            let reference = create () and chunked = create () in
            let rng = Testkit.rng ~seed:(Int64.of_int (Array.length ns)) () in
            let buf = Float.Array.make 8192 nan in
            let lens =
              [ 0; 1; 15; 16; 17; 4095; 8192 ]
              @ List.init 24 (fun _ -> Ptrng_prng.Rng.int_below rng 300)
            in
            List.iter
              (fun len ->
                let xs = dirty_jitter rng len in
                List.iter (M.Rn_estimator.feed reference) (Array.to_list xs);
                (* The tail past [len] holds stale values that must not
                   be read. *)
                Array.iteri (Float.Array.set buf) xs;
                M.Rn_estimator.feed_many chunked buf ~len;
                check_estimators (Printf.sprintf "%s, len %d" name len)
                  ~reference chunked)
              lens;
            (* The half-sums carried between chunks: per-sample feeding
               from here on keeps both in step. *)
            Array.iter
              (fun x ->
                M.Rn_estimator.feed reference x;
                M.Rn_estimator.feed chunked x)
              (dirty_jitter rng 3000);
            check_estimators (name ^ ", after per-sample tail") ~reference
              chunked)
          grids);
    Testkit.case "Health.monitor_feed_run is the per-bit feed" (fun () ->
        Tm.Registry.enable ();
        Fun.protect ~finally:Tm.Registry.disable (fun () ->
            let rng = Testkit.rng ~seed:31L () in
            List.iter
              (fun (name, bs) ->
                let create () =
                  Ptrng_sp90b.Health.monitor_create ~cutoff_rct:6 ~cutoff_apt:44
                    ~window:64
                in
                let per_bit = create () and run = create () in
                let c0 = health_counters () in
                let expected =
                  Array.fold_left
                    (fun acc b ->
                      acc
                      + popcount_flags
                          (Ptrng_sp90b.Health.monitor_feed_flags per_bit b))
                    0 bs
                in
                let c1 = health_counters () in
                let got = ref 0 in
                random_split rng (Array.length bs) ~max:150 (fun pos len ->
                    got :=
                      !got + Ptrng_sp90b.Health.monitor_feed_run run bs ~pos ~len);
                let c2 = health_counters () in
                Alcotest.(check int) (name ^ ": alarm sum") expected !got;
                Testkit.check_true (name ^ ": some alarm or a fair stream")
                  (expected > 0 || name = "fair" || name = "alternating");
                Testkit.check_true (name ^ ": totals")
                  (health_state per_bit = health_state run);
                Alcotest.(check (list int)) (name ^ ": telemetry counters")
                  (List.map2 ( - ) c1 c0) (List.map2 ( - ) c2 c1);
                Array.iteri
                  (fun i b ->
                    Alcotest.(check int)
                      (Printf.sprintf "%s: later bit %d" name i)
                      (Ptrng_sp90b.Health.monitor_feed_flags per_bit b)
                      (Ptrng_sp90b.Health.monitor_feed_flags run b))
                  (Array.append (Array.make 20 true) (Array.sub bs 0 500)))
              (bit_streams rng 5000)));
    Testkit.case "Online.feed_run is the per-bit feed" (fun () ->
        let rng = Testkit.rng ~seed:32L () in
        List.iter
          (fun (name, bs) ->
            let create () = Ptrng_ais31.Online.create ~block_bits:128 () in
            let per_bit = create () and run = create () in
            let expected =
              Array.fold_left
                (fun acc b ->
                  acc + Bool.to_int (Ptrng_ais31.Online.feed_flag per_bit b = 1))
                0 bs
            in
            let got = ref 0 in
            random_split rng (Array.length bs) ~max:300 (fun pos len ->
                got := !got + Ptrng_ais31.Online.feed_run run bs ~pos ~len);
            Alcotest.(check int) (name ^ ": alarm sum") expected !got;
            Alcotest.(check (pair int int)) (name ^ ": blocks, alarms")
              (Ptrng_ais31.Online.blocks per_bit, Ptrng_ais31.Online.alarms per_bit)
              (Ptrng_ais31.Online.blocks run, Ptrng_ais31.Online.alarms run);
            Alcotest.(check int) (name ^ ": scan")
              expected (Ptrng_ais31.Online.scan (create ()) bs);
            Array.iteri
              (fun i b ->
                Alcotest.(check int)
                  (Printf.sprintf "%s: later bit %d" name i)
                  (Ptrng_ais31.Online.feed_flag per_bit b)
                  (Ptrng_ais31.Online.feed_flag run b))
              (Array.sub bs 0 500))
          (bit_streams rng 5003));
    Testkit.case "recorder rings take chunks as per-value pushes" (fun () ->
        let rng = Testkit.rng ~seed:33L () in
        let per_value = test_recorder () and chunked = test_recorder () in
        let buf = Float.Array.make 64 nan in
        let bits_seen = Buffer.create 256 in
        (* Below, equal to and above the capacity of 7, from starts that
           wrap. *)
        List.iter
          (fun len ->
            let xs = Array.init len (fun _ -> Ptrng_prng.Rng.float rng) in
            Array.iter (M.Flight_recorder.record_jitter per_value) xs;
            Array.iteri (Float.Array.set buf) xs;
            M.Flight_recorder.record_jitter_chunk chunked buf ~len;
            let pos = Ptrng_prng.Rng.int_below rng 5 in
            let bs = Array.init (pos + len + 3) (fun _ -> Ptrng_prng.Rng.bool rng) in
            for i = pos to pos + len - 1 do
              M.Flight_recorder.record_bits per_value bs ~pos:i ~len:1;
              Buffer.add_char bits_seen (if bs.(i) then '1' else '0')
            done;
            M.Flight_recorder.record_bits chunked bs ~pos ~len;
            let bundle = freeze_last chunked in
            Alcotest.(check string) (Printf.sprintf "bundle after len %d" len)
              (freeze_last per_value) bundle;
            let total = Buffer.length bits_seen in
            let kept = Stdlib.min total 7 in
            let capture =
              Option.get (Tm.Json.member "capture" (Tm.Json.of_string bundle))
            in
            Testkit.check_true (Printf.sprintf "bits after len %d" len)
              (Tm.Json.member "bits" capture
              = Some (Tm.Json.String (Buffer.sub bits_seen (total - kept) kept))))
          [ 3; 7; 2; 15; 0; 6; 7; 1; 20; 5; 13 ];
        Alcotest.check_raises "bit range outside the array"
          (Invalid_argument "Flight_recorder.record_bits: range") (fun () ->
            M.Flight_recorder.record_bits chunked [| true |] ~pos:1 ~len:1));
    Testkit.case "feed_bits splits are invisible" (fun () ->
        let rng = Testkit.rng ~seed:34L () in
        let jitter = Array.init (1 lsl 14) (fun _ -> 1e-12 *. gaussian rng) in
        let bits = escalating_bits rng in
        let n = Array.length bits in
        let window = (test_config ()).bit_window in
        let whole = split_monitor ~jitter (fun mon -> M.Monitor.feed_bits mon bits) in
        let (_, _, incidents) = whole in
        Testkit.check_true "the stream escalates and recovers"
          (List.length incidents >= 2);
        let pieces name split =
          let got =
            split_monitor ~jitter (fun mon ->
                split (fun pos len -> M.Monitor.feed_bits mon (Array.sub bits pos len)))
          in
          let (s, h, i) = got and (s0, h0, i0) = whole in
          Testkit.check_true (name ^ ": snapshot") (compare s0 s = 0);
          Alcotest.(check string) (name ^ ": /health") h0 h;
          Alcotest.(check (list string)) (name ^ ": incidents") i0 i
        in
        pieces "1-bit arrays" (fun f -> for pos = 0 to n - 1 do f pos 1 done);
        pieces "random straddling pieces" (fun f ->
            random_split rng n ~max:(2 * window) f);
        pieces "3 x bit_window" (fun f ->
            let pos = ref 0 in
            while !pos < n do
              let len = Stdlib.min (3 * window) (n - !pos) in
              f !pos len;
              pos := !pos + len
            done));
  ]

let allocation_tests =
  [
    Testkit.case "feed_bits inside a window allocates nothing" (fun () ->
        let mon = M.Monitor.create (test_config ()) in
        M.Monitor.attach_recorder mon (test_recorder ());
        let rng = Testkit.rng ~seed:35L () in
        let bs = Array.init 40 (fun _ -> Ptrng_prng.Rng.bool rng) in
        M.Monitor.feed_bits mon (Array.sub bs 0 10);
        Testkit.check_abs ~tol:0.0 "minor words" 0.0
          (Testkit.minor_words (fun () -> M.Monitor.feed_bits mon bs)));
    Testkit.case "feed_jitter_chunk short of a refit allocates nothing"
      (fun () ->
        let mon = M.Monitor.create (test_config ()) in
        M.Monitor.attach_recorder mon (test_recorder ());
        let rng = Testkit.rng ~seed:36L () in
        let buf = Float.Array.init 1000 (fun _ -> 1e-12 *. gaussian rng) in
        M.Monitor.feed_jitter_chunk mon buf ~len:1000;
        Testkit.check_abs ~tol:0.0 "minor words" 0.0
          (Testkit.minor_words (fun () ->
               M.Monitor.feed_jitter_chunk mon buf ~len:1000)));
  ]

(* ------------------------------------------------------------------ *)
(* HTTP endpoint smoke                                                 *)
(* ------------------------------------------------------------------ *)

let http_request port request =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write_substring sock request 0 (String.length request));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read sock chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      (try drain () with Unix.Unix_error _ -> ());
      Buffer.contents buf)

let http_get port path =
  http_request port (Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path)

let body_of response =
  match String.index_opt response '{' with
  | Some i -> String.sub response i (String.length response - i)
  | None -> Alcotest.fail "no JSON body in response"

let http_tests =
  [
    Testkit.case "GET /health and /metrics on an ephemeral port" (fun () ->
        Tm.Registry.enable ();
        let mon = M.Monitor.create (test_config ()) in
        let rng = Testkit.rng ~seed:10L () in
        feed_white mon rng ~samples:(1 lsl 15) ~sigma:1e-12;
        feed_fair_bits mon rng ~bits:1024;
        let srv = M.Monitor.serve ~port:0 mon in
        Fun.protect
          ~finally:(fun () ->
            M.Http.stop srv;
            M.Http.stop srv (* idempotent *);
            Tm.Registry.disable ())
          (fun () ->
            let port = M.Http.port srv in
            Testkit.check_true "ephemeral port assigned" (port > 0);
            let health = http_get port "/health" in
            Testkit.check_true "health 200"
              (Testkit.contains ~needle:"HTTP/1.1 200 OK" health);
            Testkit.check_true "health is json"
              (Testkit.contains ~needle:"application/json" health);
            (match
               M.Verdict.of_json (Tm.Json.of_string (body_of health))
             with
            | Some _ -> ()
            | None -> Alcotest.fail "/health body does not parse");
            let metrics = http_get port "/metrics" in
            Testkit.check_true "metrics 200"
              (Testkit.contains ~needle:"HTTP/1.1 200 OK" metrics);
            Testkit.check_true "prometheus content type"
              (Testkit.contains ~needle:"text/plain; version=0.0.4" metrics);
            Testkit.check_true "monitor gauges exposed"
              (Testkit.contains ~needle:"ptrng_monitor_r_n" metrics);
            let missing = http_get port "/nope" in
            Testkit.check_true "unknown path 404"
              (Testkit.contains ~needle:"HTTP/1.1 404" missing);
            let post =
              http_request port "POST /health HTTP/1.1\r\nHost: t\r\n\r\n"
            in
            Testkit.check_true "non-GET 405"
              (Testkit.contains ~needle:"HTTP/1.1 405" post)));
    Testkit.case "GET / index and the /incidents routes" (fun () ->
        let mon = M.Monitor.create (test_config ()) in
        let srv = M.Monitor.serve ~port:0 mon in
        Fun.protect
          ~finally:(fun () -> M.Http.stop srv)
          (fun () ->
            let port = M.Http.port srv in
            let index = http_get port "/" in
            Testkit.check_true "index 200"
              (Testkit.contains ~needle:"HTTP/1.1 200 OK" index);
            List.iter
              (fun needle ->
                Testkit.check_true
                  (Printf.sprintf "index lists %s" needle)
                  (Testkit.contains ~needle index))
              [ "/metrics"; "/health"; "/incidents"; "/incidents/<n>" ];
            (* No recorder attached: the index is well-formed and empty,
               bundle lookups are 404. *)
            let empty = http_get port "/incidents" in
            Testkit.check_true "incidents 200"
              (Testkit.contains ~needle:"HTTP/1.1 200 OK" empty);
            Testkit.check_true "incidents schema"
              (Testkit.contains ~needle:"ptrng-incidents/1" empty);
            Testkit.check_true "empty count"
              (Testkit.contains ~needle:"\"count\":0" empty);
            Testkit.check_true "missing bundle 404"
              (Testkit.contains ~needle:"HTTP/1.1 404"
                 (http_get port "/incidents/0"));
            Testkit.check_true "negative id 404"
              (Testkit.contains ~needle:"HTTP/1.1 404"
                 (http_get port "/incidents/-1"));
            Testkit.check_true "non-numeric id 404"
              (Testkit.contains ~needle:"HTTP/1.1 404"
                 (http_get port "/incidents/zero"));
            (* With a recorder holding one frozen incident, both the
               listing and the bundle route serve it. *)
            let r =
              M.Flight_recorder.create ~config:(fr_config ())
                ~provenance:fr_prov ()
            in
            M.Monitor.attach_recorder mon r;
            fr_trigger r;
            let idx = http_get port "/incidents" in
            Testkit.check_true "count reflects the freeze"
              (Testkit.contains ~needle:"\"count\":1" idx);
            Testkit.check_true "summary schema in the listing"
              (Testkit.contains ~needle:"ptrng-incident-summary/1" idx);
            let bundle = http_get port "/incidents/0" in
            Testkit.check_true "bundle 200"
              (Testkit.contains ~needle:"HTTP/1.1 200 OK" bundle);
            Testkit.check_true "bundle schema"
              (Testkit.contains ~needle:"ptrng-incident/1" bundle)));
    Testkit.case "hardened edges: 400, 431 and 408" (fun () ->
        let srv =
          M.Http.start ~read_timeout:0.3
            ~handler:(fun path ->
              if path = "/ok" then Some (M.Http.response "fine") else None)
            ()
        in
        Fun.protect
          ~finally:(fun () -> M.Http.stop srv)
          (fun () ->
            let port = M.Http.port srv in
            let malformed = http_request port "BOGUS\r\n\r\n" in
            Testkit.check_true "malformed line 400"
              (Testkit.contains ~needle:"HTTP/1.1 400" malformed);
            let huge =
              http_request port
                ("GET /" ^ String.make 5000 'a' ^ " HTTP/1.1\r\n\r\n")
            in
            Testkit.check_true "oversized line 431"
              (Testkit.contains ~needle:"HTTP/1.1 431" huge);
            (* A stalled client: request line never terminated, the
               server must answer 408 after read_timeout instead of
               hanging its only listener. *)
            let stalled = http_request port "GET /ok" in
            Testkit.check_true "stalled client 408"
              (Testkit.contains ~needle:"HTTP/1.1 408" stalled);
            (* And the server is still alive for the next client. *)
            let after = http_get port "/ok" in
            Testkit.check_true "listener survives"
              (Testkit.contains ~needle:"HTTP/1.1 200 OK" after)));
  ]

(* ------------------------------------------------------------------ *)
(* Monitor.config_of_json on mutated configurations                    *)
(* ------------------------------------------------------------------ *)

(* One mutation of one field of a valid configuration's JSON: dropped,
   retyped, set to zero, negated, made non-finite or huge; [ns] can
   also be emptied or have one entry mutated. *)
let mutate_field rng (key, v) =
  let open Tm.Json in
  let pick l = List.nth l (Ptrng_prng.Rng.int_below rng (List.length l)) in
  let scalar v =
    pick
      [
        String "x"; Bool true; Null; List []; Obj []; Int 0; Float 0.0;
        Float nan; Float infinity; Float neg_infinity; Int max_int; Int min_int;
        Float 1e300; Float 1e-300; Float 0.5; Int 1; Int 2; Int (1 lsl 20);
        (match v with
        | Int n -> Int (-n)
        | Float f -> Float (-.f)
        | v -> v);
        (match v with
        | Int n -> Float (float_of_int n)
        | Float f -> Int (int_of_float f)
        | v -> v);
      ]
  in
  match v with
  | List items when Ptrng_prng.Rng.bool rng ->
    if items = [] || Ptrng_prng.Rng.bool rng then Some (key, List [])
    else
      let i = Ptrng_prng.Rng.int_below rng (List.length items) in
      Some (key, List (List.mapi (fun j x -> if j = i then scalar x else x) items))
  | _ -> if Ptrng_prng.Rng.int_below rng 8 = 0 then None else Some (key, scalar v)

(* A valid configuration (the default or the test one) with one to four
   fields mutated, from a seed. *)
let mutated_config_gen =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Ptrng_prng.Rng.create ~seed:(Int64.of_int seed) () in
      let base =
        if Ptrng_prng.Rng.bool rng then M.Monitor.default_config ~f0:paper_f0
        else test_config ()
      in
      match M.Monitor.config_json base with
      | Tm.Json.Obj fields ->
        let fields = Array.of_list fields in
        let mutated = Array.map Option.some fields in
        for _ = 1 to 1 + Ptrng_prng.Rng.int_below rng 4 do
          let i = Ptrng_prng.Rng.int_below rng (Array.length fields) in
          mutated.(i) <- mutate_field rng fields.(i)
        done;
        Tm.Json.Obj (List.filter_map Fun.id (Array.to_list mutated))
      | j -> j)
    QCheck2.Gen.int

(* A valid configuration with one to four fields set in the record
   itself, not through JSON, to values that straddle [Monitor.create]'s
   limits: integers up to max_int, floats up to the non-finite ones. *)
let mutated_record_gen =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Ptrng_prng.Rng.create ~seed:(Int64.of_int seed) () in
      let pick l = List.nth l (Ptrng_prng.Rng.int_below rng (List.length l)) in
      let i () =
        pick [ 0; 1; 2; 8; 64; 8192; 1 lsl 20; (1 lsl 20) + 1; 1 lsl 21; max_int; -1; min_int ]
      in
      let f () = pick [ 0.0; 0.5; 0.997; 1.0; 1.5; 2.0; 1e300; 1e-300; -1.0; nan; infinity ] in
      let set (c : M.Monitor.config) = function
        | 0 -> { c with f0 = f () }
        | 1 -> { c with ns = pick [ [||]; [| 4; 8 |]; [| 8; 1 lsl 20 |]; [| 16; 1 lsl 21 |] ] }
        | 2 -> { c with realizations = i () }
        | 3 -> { c with min_realizations = i () }
        | 4 -> { c with confidence = f () }
        | 5 -> { c with judge_n = i () }
        | 6 -> { c with fit_stride = i () }
        | 7 -> { c with h_claim = f () }
        | 8 -> { c with sp_alpha_exp = i () }
        | 9 -> { c with sp_window = i () }
        | 10 -> { c with bit_window = i () }
        | 11 -> { c with ais31_block = i () }
        | 12 -> { c with ais31_alpha_exp = i () }
        | 13 -> { c with ewma_lambda = f () }
        | 14 -> { c with ewma_limit = f () }
        | 15 -> { c with cusum_k = f () }
        | 16 -> { c with cusum_h = f () }
        | 17 -> { c with chart_sigma = f () }
        | 18 -> { c with entropy_floor = f () }
        | 19 -> { c with entropy_fail = f () }
        | 20 -> { c with history = i () }
        | _ -> { c with recovery_windows = i () }
      in
      let c =
        ref
          (if Ptrng_prng.Rng.bool rng then M.Monitor.default_config ~f0:paper_f0
           else test_config ())
      in
      for _ = 1 to 1 + Ptrng_prng.Rng.int_below rng 4 do
        c := set !c (Ptrng_prng.Rng.int_below rng 22)
      done;
      !c)
    QCheck2.Gen.int

let config_fuzz_tests =
  [
    Testkit.qcheck ~count:2000
      "every configuration Monitor.create accepts round-trips through JSON text"
      mutated_record_gen (fun cfg ->
        match M.Monitor.create cfg with
        | exception Invalid_argument _ -> true
        | (_ : M.Monitor.t) ->
          let j = M.Monitor.config_json cfg in
          M.Monitor.config_of_json (Tm.Json.of_string (Tm.Json.to_string j))
          = Some cfg
          || QCheck2.Test.fail_reportf "create accepted %s, config_of_json did not"
               (Tm.Json.to_string j));
    Testkit.qcheck ~count:2000
      "config_of_json: None, or a config Monitor.create accepts" mutated_config_gen
      (fun j ->
        match M.Monitor.config_of_json j with
        | None -> true
        | Some cfg -> (
          match M.Monitor.create cfg with
          | (_ : M.Monitor.t) -> true
          | exception e ->
            QCheck2.Test.fail_reportf "%s accepted, then create raised %s"
              (Tm.Json.to_string j) (Printexc.to_string e)));
    (* Every field of the test configuration set in turn to each
       boundary value, ns to each list. *)
    Testkit.case "config_of_json: field-by-field boundary sweep" (fun () ->
        let open Tm.Json in
        let fields =
          match M.Monitor.config_json (test_config ()) with
          | Obj f -> f
          | _ -> assert false
        in
        let values =
          [
            Int 0; Int 1; Int 2; Int (-1); Int 63; Int 64; Int (1 lsl 20);
            Int ((1 lsl 20) + 1); Int (-(1 lsl 20)); Float 0.0; Float (-0.0);
            Float 1e-300; Float 0.5; Float 1.0; Float 1.5; Float 1e300;
            List []; List [ Int 0 ]; List [ Int 8; Int 4 ]; List [ Int 4; Int 4 ];
            List [ Int (1 lsl 20) ];
          ]
        in
        let accepted = ref 0 in
        List.iter
          (fun (key, _) ->
            List.iter
              (fun v ->
                let j =
                  Obj (List.map (fun (k, x) -> (k, if k = key then v else x)) fields)
                in
                match M.Monitor.config_of_json j with
                | None -> ()
                | Some cfg -> (
                  incr accepted;
                  match M.Monitor.create cfg with
                  | (_ : M.Monitor.t) -> ()
                  | exception e ->
                    Alcotest.failf "%s = %s accepted, then create raised %s" key
                      (to_string v) (Printexc.to_string e)))
              values)
          fields;
        Testkit.check_true
          (Printf.sprintf "%d boundary configurations accepted" !accepted)
          (!accepted > 0));
    Testkit.case "config_of_json round-trips the valid configurations" (fun () ->
        List.iter
          (fun cfg ->
            Testkit.check_true "round trip"
              (M.Monitor.config_of_json (M.Monitor.config_json cfg) = Some cfg))
          [ M.Monitor.default_config ~f0:paper_f0; test_config () ]);
  ]

let () =
  Alcotest.run "ptrng_monitor"
    [
      ("window", window_tests);
      ("control_chart", chart_tests);
      ("rn_estimator", rn_tests);
      ("verdict", verdict_tests);
      ("monitor", monitor_tests);
      ("flight_recorder", recorder_tests);
      ("config_fuzz", config_fuzz_tests);
      ("equivalence", equivalence_tests);
      ("allocation", allocation_tests);
      ("http", http_tests);
    ]
