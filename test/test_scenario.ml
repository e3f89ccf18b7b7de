(* The scenario engine: profile/fault evaluation math, constructor
   validation, scenario-aware streaming physics (identity parity,
   quench and coupling effects on the relative jitter), the registry
   matrix, the detection-latency scorer over synthetic snapshots, the
   attack spec that a monitor-kind incident replays from, and the
   postmortem replay's checks on an edited bundle. *)

module FA = Float.Array
module Sc = Ptrng_device.Scenario
module M = Ptrng_monitor
module Registry = Ptrng_scenario.Registry

let pi = Float.pi

(* ------------------------------------------------------------------ *)
(* Profile evaluation                                                  *)
(* ------------------------------------------------------------------ *)

let profile_tests =
  [
    Testkit.case "Const and Step" (fun () ->
        Testkit.check_abs ~tol:1e-15 "const" 1.3
          (Sc.eval_profile (Sc.Const 1.3) 12345);
        let s = Sc.Step { at = 100; before = 1.0; after = 0.5 } in
        Testkit.check_abs ~tol:1e-15 "before" 1.0 (Sc.eval_profile s 99);
        Testkit.check_abs ~tol:1e-15 "at" 0.5 (Sc.eval_profile s 100);
        Testkit.check_abs ~tol:1e-15 "after" 0.5 (Sc.eval_profile s 5000));
    Testkit.case "Ramp interpolates and clamps" (fun () ->
        let r = Sc.Ramp { start = 100; stop = 300; from_ = 1.0; to_ = 3.0 } in
        Testkit.check_abs ~tol:1e-12 "clamped low" 1.0 (Sc.eval_profile r 0);
        Testkit.check_abs ~tol:1e-12 "midpoint" 2.0 (Sc.eval_profile r 200);
        Testkit.check_abs ~tol:1e-12 "clamped high" 3.0 (Sc.eval_profile r 999));
    Testkit.case "Sine matches mean + A sin(2 pi k/P + phase)" (fun () ->
        let s =
          Sc.Sine { period = 400; mean = 1.0; amplitude = 0.25; phase = 0.0 }
        in
        Testkit.check_abs ~tol:1e-12 "k=0" 1.0 (Sc.eval_profile s 0);
        Testkit.check_abs ~tol:1e-12 "quarter period" 1.25
          (Sc.eval_profile s 100);
        Testkit.check_abs ~tol:1e-12 "three quarters" 0.75
          (Sc.eval_profile s 300);
        let c =
          Sc.Sine
            { period = 400; mean = 1.0; amplitude = 0.25; phase = pi /. 2.0 }
        in
        Testkit.check_abs ~tol:1e-12 "cosine phase at k=0" 1.25
          (Sc.eval_profile c 0));
    Testkit.case "Drift is exp(rate k)" (fun () ->
        let d = Sc.Drift { rate = -1e-3 } in
        Testkit.check_abs ~tol:1e-15 "identity at k=0" 1.0
          (Sc.eval_profile d 0);
        Testkit.check_rel ~tol:1e-12 "decay" (exp (-1.0))
          (Sc.eval_profile d 1000));
  ]

(* ------------------------------------------------------------------ *)
(* Constructor validation and fault evaluation                         *)
(* ------------------------------------------------------------------ *)

let make ?b_th ?b_fl ?f0 ?faults () =
  Sc.make ?b_th ?b_fl ?f0 ?faults ~name:"t" ~description:"test" ()

let raises_invalid name f =
  Testkit.check_true name
    (match f () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let validation_tests =
  [
    Testkit.case "rejects out-of-range parameters" (fun () ->
        raises_invalid "non-positive const" (fun () ->
            make ~b_th:(Sc.Const 0.0) ());
        raises_invalid "sine amplitude >= mean" (fun () ->
            make
              ~b_fl:
                (Sc.Sine { period = 64; mean = 1.0; amplitude = 1.0; phase = 0.0 })
              ());
        raises_invalid "quench factor > 1" (fun () ->
            make
              ~faults:
                [ Sc.Thermal_quench { onset = 0; duration = 1; factor = 1.5 } ]
              ());
        raises_invalid "negative onset" (fun () ->
            make
              ~faults:
                [ Sc.Thermal_quench { onset = -1; duration = 1; factor = 0.5 } ]
              ());
        raises_invalid "coupling strength = 1" (fun () ->
            make
              ~faults:[ Sc.Coupling { onset = 0; duration = 1; strength = 1.0 } ]
              ());
        raises_invalid "tone freq above Nyquist" (fun () ->
            make
              ~faults:
                [
                  Sc.Tone_injection
                    { onset = 0; duration = 1; freq = 0.6; amplitude = 1e-4 };
                ]
              ()));
    Testkit.case "faults apply only inside their window" (fun () ->
        let t =
          make
            ~faults:
              [ Sc.Thermal_quench { onset = 100; duration = 50; factor = 0.1 } ]
            ()
        in
        let st = Sc.state () in
        Sc.eval t 99 st;
        Testkit.check_abs ~tol:1e-15 "identity before onset" 1.0 st.th_mult;
        Sc.eval t 100 st;
        Testkit.check_abs ~tol:1e-15 "quenched at onset" 0.1 st.th_mult;
        Sc.eval t 149 st;
        Testkit.check_abs ~tol:1e-15 "quenched at last index" 0.1 st.th_mult;
        Sc.eval t 150 st;
        Testkit.check_abs ~tol:1e-15 "identity after" 1.0 st.th_mult);
    Testkit.case "supply droop scales f0 down and b_th up" (fun () ->
        let t =
          make
            ~faults:
              [ Sc.Supply_droop { onset = 0; duration = 10; depth = 0.2 } ]
            ()
        in
        let st = Sc.state () in
        Sc.eval t 5 st;
        Testkit.check_abs ~tol:1e-12 "f0 x (1-depth)" 0.8 st.f0_mult;
        Testkit.check_rel ~tol:1e-12 "b_th x 1/(1-depth)" 1.25 st.th_mult);
    Testkit.case "tone and coupling land in the state" (fun () ->
        let t =
          make
            ~faults:
              [
                Sc.Tone_injection
                  { onset = 10; duration = 100; freq = 0.25; amplitude = 2e-4 };
                Sc.Coupling { onset = 10; duration = 100; strength = 0.9 };
              ]
            ()
        in
        let st = Sc.state () in
        Sc.eval t 11 st;
        (* One quarter tone cycle past the onset: sin(2 pi 0.25) = 1. *)
        Testkit.check_rel ~tol:1e-12 "tone peak" 2e-4 st.tone;
        Testkit.check_abs ~tol:1e-15 "coupling strength" 0.9 st.coupling;
        Sc.eval t 5 st;
        Testkit.check_abs ~tol:1e-15 "no tone before onset" 0.0 st.tone;
        Testkit.check_abs ~tol:1e-15 "no coupling before onset" 0.0 st.coupling);
    Testkit.case "onset is the earliest departure" (fun () ->
        Testkit.check_true "calm has none" (Sc.onset (make ()) = None);
        let t =
          make
            ~b_th:(Sc.Step { at = 500; before = 1.0; after = 0.5 })
            ~faults:
              [ Sc.Thermal_quench { onset = 300; duration = 10; factor = 0.5 } ]
            ()
        in
        Testkit.check_true "earliest of profile and fault"
          (Sc.onset t = Some 300));
  ]

(* ------------------------------------------------------------------ *)
(* Scenario-aware streaming physics                                    *)
(* ------------------------------------------------------------------ *)

let stream_periods ?scenario ~seed n =
  let rng = Ptrng_prng.Rng.create ~seed () in
  let pair = Ptrng_osc.Pair.paper_pair () in
  let st = Ptrng_osc.Pair.stream ~flicker_block:n ?scenario rng pair in
  let p1 = FA.create n and p2 = FA.create n in
  Ptrng_osc.Pair.fill st ~p1 ~p2 ~len:n;
  (p1, p2)

let relative_sd p1 p2 =
  let n = FA.length p1 in
  let mean = ref 0.0 in
  for i = 0 to n - 1 do
    mean := !mean +. (FA.get p1 i -. FA.get p2 i)
  done;
  let mean = !mean /. float_of_int n in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let d = FA.get p1 i -. FA.get p2 i -. mean in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int (n - 1))

let stream_tests =
  [
    Testkit.case "identity scenario is bit-identical to the plain stream"
      (fun () ->
        let n = 4096 in
        let a1, a2 = stream_periods ~seed:11L n in
        let b1, b2 = stream_periods ~scenario:(make ()) ~seed:11L n in
        Testkit.check_true "osc1 parity" (a1 = b1);
        Testkit.check_true "osc2 parity" (a2 = b2));
    Testkit.case "thermal quench shrinks the relative jitter" (fun () ->
        let n = 1 lsl 14 in
        let quench =
          make
            ~faults:
              [ Sc.Thermal_quench { onset = 0; duration = Sc.forever; factor = 0.01 } ]
            ()
        in
        let c1, c2 = stream_periods ~seed:12L n in
        let q1, q2 = stream_periods ~scenario:quench ~seed:12L n in
        let sd_calm = relative_sd c1 c2 and sd_q = relative_sd q1 q2 in
        (* b_th x 0.01 scales the thermal deviation by 10x; flicker is
           untouched, so allow a loose factor. *)
        Testkit.check_true "jitter collapsed" (sd_q < 0.5 *. sd_calm));
    Testkit.case "coupling collapses relative jitter and detuning" (fun () ->
        let n = 1 lsl 14 in
        let lock =
          make
            ~faults:
              [ Sc.Coupling { onset = 0; duration = Sc.forever; strength = 0.95 } ]
            ()
        in
        let c1, c2 = stream_periods ~seed:13L n in
        let l1, l2 = stream_periods ~scenario:lock ~seed:13L n in
        Testkit.check_true "jitter collapsed"
          (relative_sd l1 l2 < 0.2 *. relative_sd c1 c2);
        let mean p =
          let acc = ref 0.0 in
          FA.iter (fun v -> acc := !acc +. v) p;
          !acc /. float_of_int n
        in
        let detuning a b = Float.abs (mean a -. mean b) in
        Testkit.check_true "frequencies pulled together"
          (detuning l1 l2 < 0.2 *. detuning c1 c2));
  ]

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry_tests =
  [
    Testkit.case "matrix has at least 8 uniquely named workloads" (fun () ->
        let names = Registry.names () in
        Testkit.check_true "size" (List.length names >= 8);
        Testkit.check_true "unique"
          (List.length (List.sort_uniq compare names) = List.length names));
    Testkit.case "find round-trips every name, rejects unknowns" (fun () ->
        List.iter
          (fun n ->
            match Registry.find n with
            | Some e ->
              Testkit.check_true ("name " ^ n) (Sc.name e.scenario = n)
            | None -> Alcotest.fail ("registry lost " ^ n))
          (Registry.names ());
        Testkit.check_true "unknown name" (Registry.find "no-such" = None));
    Testkit.case "geometry is coherent" (fun () ->
        Testkit.check_true "onset inside the run"
          (Registry.fault_onset + Registry.fault_duration
          < Registry.default_periods);
        List.iter
          (fun (e : Registry.entry) ->
            Testkit.check_true (Sc.name e.scenario ^ " periods") (e.periods > 0);
            Testkit.check_true (Sc.name e.scenario ^ " divisor") (e.divisor > 0);
            Testkit.check_true
              (Sc.name e.scenario ^ " expected text")
              (String.length e.expected > 0);
            match Sc.onset e.scenario with
            | None -> ()
            | Some o ->
              Testkit.check_true (Sc.name e.scenario ^ " onset") (o < e.periods))
          (Registry.all ()));
  ]

(* ------------------------------------------------------------------ *)
(* Detection scoring over synthetic snapshots                          *)
(* ------------------------------------------------------------------ *)

let ok_verdict = M.Verdict.make [] ~failing:(fun _ -> false)

let bad_verdict code =
  M.Verdict.make
    [ { M.Verdict.code; detail = "t" } ]
    ~failing:(fun _ -> false)

let snap ?(periods = 0) ?(bits = 0) ?(windows = 0) ?(rct = 0) ?(apt = 0)
    ?(ais31 = 0) ?(r = 0.99) ?(verdict = ok_verdict) () : M.Monitor.snapshot =
  {
    t_s = 0.0;
    periods;
    bits;
    windows;
    ready = true;
    judge_n = 32;
    confidence = 0.95;
    r_judge = r;
    k_est = 5354.0;
    threshold_n = max_int;
    points = [||];
    rct_alarms = rct;
    apt_alarms = apt;
    ais31_alarms = ais31;
    ais31_blocks = 0;
    alarm_rate = 0.0;
    ewma_value = 0.0;
    ewma_crossed = false;
    cusum_pos = 0.0;
    cusum_neg = 0.0;
    cusum_crossed = false;
    min_entropy = 0.95;
    clean_streak = 0;
    recoveries = 0;
    windows_since_alarm = 0;
    recent_r = [||];
    recent_entropy = [||];
    recent_alarms = [||];
    recent_since_alarm = [||];
    transitions = [||];
    verdict;
  }

let detection_tests =
  [
    Testkit.case "calm run counts false alarms, never detects" (fun () ->
        let d = M.Detection.create () in
        M.Detection.observe d (snap ~periods:100 ());
        M.Detection.observe d (snap ~periods:200 ~rct:2 ());
        let s = M.Detection.summary d in
        Alcotest.(check int) "false alarms" 2 s.false_alarms;
        Testkit.check_true "no detection" (s.detected = None));
    Testkit.case "first alarm is attributed and latency-stamped" (fun () ->
        let d = M.Detection.create ~onset_period:1000 () in
        M.Detection.observe d (snap ~periods:900 ~bits:30 ~windows:2 ());
        M.Detection.observe d
          (snap ~periods:1500 ~bits:50 ~windows:3 ~rct:1
             ~verdict:(bad_verdict "rct") ());
        match (M.Detection.summary d).detected with
        | None -> Alcotest.fail "no detection"
        | Some a ->
          Alcotest.(check string) "detector" "rct" a.detector;
          Alcotest.(check int) "at period" 1500 a.at_period;
          Alcotest.(check int) "latency periods" 500 a.latency_periods;
          Alcotest.(check int) "latency bits" 20 a.latency_bits;
          Alcotest.(check int) "latency windows" 1 a.latency_windows);
    Testkit.case "model-level detection falls back to the verdict reason"
      (fun () ->
        let d = M.Detection.create ~onset_period:100 () in
        M.Detection.observe d (snap ~periods:50 ());
        M.Detection.observe d
          (snap ~periods:200 ~r:0.80 ~verdict:(bad_verdict "independence") ());
        match (M.Detection.summary d).detected with
        | Some a -> Alcotest.(check string) "detector" "independence" a.detector
        | None -> Alcotest.fail "no detection");
    Testkit.case "recovery is the terminal ok streak" (fun () ->
        let d = M.Detection.create ~onset_period:100 () in
        M.Detection.observe d
          (snap ~periods:200 ~rct:1 ~verdict:(bad_verdict "rct") ());
        M.Detection.observe d (snap ~periods:300 ~windows:3 ~rct:1 ());
        Testkit.check_true "recovered after first ok"
          ((M.Detection.summary d).recovered <> None);
        M.Detection.observe d
          (snap ~periods:400 ~rct:2 ~verdict:(bad_verdict "rct") ());
        Testkit.check_true "relapse clears it"
          ((M.Detection.summary d).recovered = None);
        M.Detection.observe d (snap ~periods:500 ~windows:5 ~rct:2 ());
        match (M.Detection.summary d).recovered with
        | Some r -> Alcotest.(check int) "terminal streak start" 500 r.at_period
        | None -> Alcotest.fail "terminal recovery lost");
    Testkit.case "lie margins track static minus live" (fun () ->
        let d =
          M.Detection.create ~onset_period:100 ~static_r:0.994
            ~static_entropy:0.27 ()
        in
        M.Detection.observe d ~live_entropy:0.26 (snap ~periods:200 ~r:0.91 ());
        M.Detection.observe d ~live_entropy:0.10 (snap ~periods:300 ~r:0.95 ());
        let s = M.Detection.summary d in
        Testkit.check_abs ~tol:1e-9 "r margin is the max" 0.084 s.lie_margin_r;
        Testkit.check_abs ~tol:1e-9 "entropy margin" 0.17 s.lie_margin_entropy);
  ]

(* ------------------------------------------------------------------ *)
(* Attack spec and monitor-kind replay                                 *)
(* ------------------------------------------------------------------ *)

module Attack = Ptrng_trng.Attack

let spec_bits (t : Attack.t) = (t.kind, Int64.bits_of_float t.strength)

let attack_tests =
  [
    Testkit.case "printer keeps the historical %g form" (fun () ->
        Alcotest.(check string) "none" "none" (Attack.to_string (Attack.make No_attack ~strength:0.5));
        Alcotest.(check string) "quench" "quench:0.95"
          (Attack.to_string (Attack.make Quench ~strength:0.95));
        Alcotest.(check string) "inject" "inject:0.9512345"
          (Attack.to_string (Attack.make Inject ~strength:0.9512345)));
    Testkit.qcheck "spec round-trips bit for bit"
      QCheck2.Gen.(
        pair (oneofl [ Attack.No_attack; Quench; Inject ])
          (oneof
             [
               float_bound_exclusive 1.0;
               oneofl [ 0.0; 0.95; 0.9512345; Float.pred 1.0; 5e-324; 1e-300 ];
             ]))
      (fun (kind, strength) ->
        let t = Attack.make kind ~strength in
        match Attack.of_string (Attack.to_string t) with
        | Ok back -> spec_bits back = spec_bits t
        | Error _ -> false);
    Testkit.case "bad specs are errors" (fun () ->
        List.iter
          (fun s ->
            Testkit.check_true s (Result.is_error (Attack.of_string s)))
          [
            ""; "quench"; "quench:"; "quench:1"; "quench:-0.1"; "quench:nan";
            "inject:inf"; "none:0.5"; "bogus:0.5"; "Quench:0.5"; "inject:0.5:1";
          ]);
    Testkit.qcheck ~count:1000 "arbitrary strings never raise"
      QCheck2.Gen.(
        oneof
          [
            string_printable;
            map3
              (fun k sep v -> k ^ sep ^ v)
              (oneofl [ "none"; "quench"; "inject"; ""; "Quench" ])
              (oneofl [ ":"; ""; "::" ])
              (oneof [ string_printable; map string_of_float float ]);
          ])
      (fun s ->
        match Attack.of_string s with
        | Error _ -> true
        | Ok t -> (
          match Attack.of_string (Attack.to_string t) with
          | Ok back -> spec_bits back = spec_bits t
          | Error _ -> false));
    Testkit.case "monitor incident at a 7-digit strength verifies" (fun () ->
        (* [repro monitor]'s stream and chunking under a quench whose
           strength a 6-digit %g would round to 0.951234. *)
        let module FR = M.Flight_recorder in
        let attack = Attack.make Quench ~strength:0.9512345 in
        let seed = 2014 and divisor = 1000 and chunk = 262144 in
        let mon =
          M.Monitor.create (M.Monitor.default_config ~f0:Ptrng_osc.Pair.paper_f0)
        in
        let recorder =
          FR.create
            ~provenance:
              {
                FR.kind = "monitor";
                workload = Attack.to_string attack;
                seed;
                divisor;
                chunk;
                flicker_block = chunk;
              }
            ()
        in
        M.Monitor.attach_recorder mon recorder;
        let stream =
          Ptrng_osc.Pair.stream ~flicker_block:chunk
            (Testkit.rng ~seed:(Int64.of_int seed) ())
            (Attack.apply attack (Ptrng_osc.Pair.paper_pair ()))
        in
        let feed = Ptrng_scenario.Runner.step ~chunk ~divisor stream mon in
        let fed = ref 0 in
        while FR.incident_count recorder = 0 && !fed < 64 * chunk do
          feed ~len:chunk;
          fed := !fed + chunk
        done;
        match FR.incidents recorder with
        | [] -> Alcotest.fail "no incident froze"
        | inc :: _ ->
          let v =
            Ptrng_scenario.Postmortem.verify (FR.incident_json recorder inc)
          in
          Alcotest.(check string) "workload" "quench:0.9512345" v.workload;
          Alcotest.(check (list string)) "no errors" [] v.errors;
          Testkit.check_true "segment and bundle match"
            (v.segment_match && v.bundle_match));
  ]

(* ------------------------------------------------------------------ *)
(* Postmortem input checks                                             *)
(* ------------------------------------------------------------------ *)

module Json = Ptrng_telemetry.Json

(* [bundle] with provenance field [k] set to [v]. *)
let with_provenance k v bundle =
  let set fields = List.map (fun (f, x) -> if f = k then (f, v) else (f, x)) fields in
  match bundle with
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (fun (f, x) ->
           match (f, x) with
           | "provenance", Json.Obj p -> (f, Json.Obj (set p))
           | _ -> (f, x))
         fields)
  | _ -> Alcotest.fail "bundle is not an object"

let postmortem_tests =
  [
    Testkit.case "non-positive provenance counts are replay errors" (fun () ->
        let entry = Option.get (Registry.find "thermal-quench") in
        let bundle =
          match (Ptrng_scenario.Runner.run ~seed:2014 entry).incidents with
          | b :: _ -> b
          | [] -> Alcotest.fail "thermal-quench froze no incident"
        in
        List.iter
          (fun k ->
            List.iter
              (fun v ->
                let edited = with_provenance k (Json.Int v) bundle in
                let name = Printf.sprintf "%s = %d" k v in
                let expect_error what = function
                  | Ok _ -> Alcotest.failf "%s: %s accepted the bundle" name what
                  | Error e ->
                    Testkit.check_true
                      (Printf.sprintf "%s: %s error %S names the field" name what e)
                      (Testkit.contains ~needle:k e)
                in
                expect_error "replay" (Ptrng_scenario.Postmortem.replay edited);
                expect_error "segment check"
                  (Ptrng_scenario.Postmortem.segment_check edited);
                let v = Ptrng_scenario.Postmortem.verify edited in
                Testkit.check_false (name ^ ": verify fails")
                  (v.segment_match || v.bundle_match))
              [ 0; -5 ])
          [ "divisor"; "chunk"; "flicker_block" ]);
  ]

let () =
  Alcotest.run "ptrng_scenario"
    [
      ("profile", profile_tests);
      ("validation", validation_tests);
      ("stream", stream_tests);
      ("registry", registry_tests);
      ("detection", detection_tests);
      ("attack", attack_tests);
      ("postmortem", postmortem_tests);
    ]
