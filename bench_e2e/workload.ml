(* The four benchmark workloads.

   Each workload is a closed loop from one producer: every caller of
   this library waits for a call to return before making the next
   (Runner.run, repro monitor, characterize), so the benchmark does too.
   A workload builds its inputs from the seed in [setup]; one
   repetition then goes through the public entry points ([run]), or,
   for the traced run, through a bench-side copy of the same pipeline
   that calls the per-layer functions one by one, each inside a span
   named "<layer>.<stage>" ([replica]).  Both return an [outcome] whose
   fingerprint holds every output bit the checks compare, so the
   traced loop is proven to do the same work as the public call. *)

module FA = Float.Array
module Span = Ptrng_telemetry.Span
module Json = Ptrng_telemetry.Json
module Rng = Ptrng_prng.Rng
module Pair = Ptrng_osc.Pair
module Scenario = Ptrng_device.Scenario
module M = Ptrng_monitor
module S = Ptrng_scenario

type outcome = {
  fingerprint : string;  (* bit-exact digest of the outputs *)
  checks : (string * bool) list;  (* named expectations on the outputs *)
}

type instance = {
  periods : int;  (* oscillator periods (or jitter samples) per repetition *)
  calls : int;  (* closed-loop calls per repetition: latency samples *)
  run : FA.t -> outcome;
      (* one repetition through the public entry points, writing each
         call's wall time (s) into the array *)
  replica : unit -> outcome;
      (* the same repetition as per-layer calls, each in a span *)
  probes : unit -> (string * float) list * (string * bool) list;
      (* standalone per-layer timings that are not part of the
         repetition, with their checks; traced runs only *)
}

type t = { name : string; setup : seed:int -> shift:int -> instance }

let span = Span.with_
let hex = Printf.sprintf "%h"
let rng_of seed = Rng.create ~seed:(Int64.of_int seed) ()
let elapsed_s t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9

let timed f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (elapsed_s t0, r)

let timed_call lat i f =
  let s, r = timed f in
  FA.set lat i s;
  r

let no_probes () = ([], [])

(* The relative jitter j(k) = p1(k) - p2(k) every streamed consumer
   feeds on. *)
let relative_jitter ~p1 ~p2 ~dst ~len =
  for i = 0 to len - 1 do
    FA.unsafe_set dst i (FA.unsafe_get p1 i -. FA.unsafe_get p2 i)
  done

let fill_span pos = if pos = 0 then "osc.pair_fill.first" else "osc.pair_fill"

(* ---------------------------------------------------------------- *)
(* characterize: offline device characterization (Fig. 7, III-E).  *)

(* Multilevel.characterize streams in chunks of this many periods; the
   replica keeps the partition, although every stage is
   partition-independent. *)
let char_chunk = 8192

(* The paper's fitted thermal coefficient a and k = a/b. *)
let paper_a = 5.36e-6
let paper_k = 5354.0

let characterize_outcome ~full (a : Ptrng_model.Multilevel.analysis) =
  let fit = a.fit in
  let k = fit.a /. fit.b in
  let ge, ge_se = a.growth_exponent in
  let counter =
    match a.counter_fit with
    | None -> "none"
    | Some f -> hex f.a ^ "," ^ hex f.b ^ "," ^ hex f.c
  in
  let checks =
    ("characterize.fit_positive", fit.a > 0.0 && Float.is_finite fit.b)
    ::
    (if full then
       [
         ("characterize.a_within_5pct", Float.abs ((fit.a /. paper_a) -. 1.0) < 0.05);
         ("characterize.k_within_2x", k > paper_k /. 2.0 && k < paper_k *. 2.0);
         ("characterize.growth_superlinear", ge > 1.0 && ge < 2.0);
       ]
     else [])
  in
  {
    fingerprint =
      String.concat " "
        [
          hex fit.a; hex fit.b; hex fit.a_se; hex fit.b_se; counter;
          hex a.extract.sigma_thermal; hex ge; hex ge_se;
        ];
    checks;
  }

(* Multilevel.characterize, stage by stage. *)
let characterize_replica ~n ~rng pair : Ptrng_model.Multilevel.analysis =
  let module Vc = Ptrng_measure.Variance_curve in
  let module Fit = Ptrng_measure.Fit in
  let f0 = Ptrng_model.Multilevel.nominal_f0 pair in
  let ns = Vc.log2_grid ~n_min:4 ~n_max:(n / 32) in
  let st =
    span ~name:"osc.pair_stream" (fun () -> Pair.stream ~flicker_block:n rng pair)
  in
  let jitter_acc = Vc.Jitter_acc.create ~f0 ns in
  let counter_acc = Vc.Counter_acc.create ~f0 ~ns in
  let p1 = FA.create char_chunk and p2 = FA.create char_chunk in
  let jbuf = FA.create char_chunk in
  let pos = ref 0 in
  while !pos < n do
    let len = min char_chunk (n - !pos) in
    span ~name:(fill_span !pos) (fun () -> Pair.fill st ~p1 ~p2 ~len);
    span ~name:"bench.glue" (fun () -> relative_jitter ~p1 ~p2 ~dst:jbuf ~len);
    span ~name:"measure.jitter_acc" (fun () -> Vc.Jitter_acc.feed jitter_acc jbuf ~len);
    span ~name:"measure.counter_acc" (fun () ->
        Vc.Counter_acc.feed counter_acc ~p1 ~p2 ~len);
    pos := !pos + len
  done;
  let ideal_curve, counter_curve, fit, counter_fit, extract =
    span ~name:"measure.fit" (fun () ->
        let ideal_curve = Vc.Jitter_acc.points jitter_acc in
        let counter_curve = Vc.Counter_acc.points counter_acc in
        let fit = Fit.fit ~f0 ideal_curve in
        let detuning =
          Float.abs (pair.osc1.Ptrng_osc.Oscillator.f0 -. pair.osc2.Ptrng_osc.Oscillator.f0)
          /. f0
        in
        let phase = Fit.phase_of fit in
        let saturated =
          List.filter
            (fun (p : Vc.point) ->
              Ptrng_measure.Quantization.drift_per_window ~phase ~f0 ~detuning ~n:p.n
              >= 0.25)
            (Array.to_list counter_curve)
        in
        let counter_fit =
          if List.length saturated >= 5 then
            Some (Fit.fit ~with_floor:true ~f0 (Array.of_list saturated))
          else None
        in
        ( ideal_curve, counter_curve, fit, counter_fit,
          Ptrng_measure.Thermal_extract.of_fit fit ))
  in
  let growth_exponent =
    span ~name:"model.growth_exponent" (fun () ->
        Ptrng_model.Bienayme.growth_exponent ideal_curve)
  in
  { pair; n_periods = n; ideal_curve; counter_curve; fit; counter_fit; extract;
    growth_exponent }

let characterize =
  let setup ~seed ~shift =
    let n = 1 lsl (22 - shift) in
    let pair = Pair.paper_pair () in
    let full = shift = 0 in
    {
      periods = n;
      calls = 1;
      run =
        (fun lat ->
          characterize_outcome ~full
            (timed_call lat 0 (fun () ->
                 Ptrng_model.Multilevel.characterize ~n_periods:n ~rng:(rng_of seed)
                   pair)));
      replica =
        (fun () ->
          characterize_outcome ~full (characterize_replica ~n ~rng:(rng_of seed) pair));
      probes = no_probes;
    }
  in
  { name = "characterize"; setup }

(* ---------------------------------------------------------------- *)
(* scenario-matrix: the live pipeline under four schedules.         *)

let scenario_names = [ "calm"; "thermal-quench"; "tone-burst"; "lock-burst" ]

(* Outcomes that hold for every seed: no scenario raises a false alarm
   or ends off ok, calm detects nothing, and the quench and the lock
   burst are caught and recovered from.  Whether the tone burst is
   caught depends on the seed, so it is not an expectation. *)
let scenario_checks (r : S.Runner.result) =
  let d = r.detection in
  let covers_fault =
    r.periods >= S.Registry.fault_onset + S.Registry.fault_duration
  in
  let detection =
    if r.name = "calm" || not covers_fault then
      [ (r.name ^ ".nothing_detected", d.detected = None) ]
    else if r.name = "thermal-quench" || r.name = "lock-burst" then
      [ (r.name ^ ".detected_and_recovered", d.detected <> None && d.recovered <> None) ]
    else []
  in
  (r.name ^ ".no_false_alarms", d.false_alarms = 0 && d.pre_onset_nonok = 0)
  :: (r.name ^ ".final_ok", r.final_status = M.Verdict.Ok)
  :: detection

(* Digested per entry, so one entry's report and incident bundles are
   garbage before the next entry runs: the peak RSS then follows the
   pipeline, not how many reports the benchmark holds. *)
let scenario_entry (r : S.Runner.result) =
  {
    fingerprint =
      Digest.string
        (String.concat "\n"
           (Json.to_string (S.Runner.result_json r) :: List.map Json.to_string r.incidents));
    checks = scenario_checks r;
  }

let scenario_outcome entries =
  {
    fingerprint = String.concat "" (List.map (fun o -> o.fingerprint) entries);
    checks = List.concat_map (fun o -> o.checks) entries;
  }

(* Runner's live model claim and incident attribution, as in
   lib/scenario/runner.ml. *)
let live_entropy_claim ~f0 ~divisor (snap : M.Monitor.snapshot) =
  try
    let fit = Ptrng_measure.Fit.fit ~f0 snap.points in
    let extract = Ptrng_measure.Thermal_extract.of_fit fit in
    Ptrng_model.Design.entropy_at ~extract ~divisor
  with Invalid_argument _ | Failure _ -> nan

let attribution_match (d : M.Detection.summary) inc =
  let direction, _, _ = M.Flight_recorder.incident_trigger inc in
  match d.detected with
  | Some a when direction = "escalation" ->
    Json.Bool
      (List.exists (fun (code, _) -> code = a.detector)
         (M.Flight_recorder.incident_reasons inc))
  | _ -> Json.Null

(* Runner.run, stage by stage.  Appends each chunk's wall time to
   [chunk_s] from index [!chunk_i]. *)
let scenario_replica ~seed ~chunk_s ~chunk_i (e : S.Registry.entry) : S.Runner.result =
  let scen = e.scenario in
  let cfg = S.Runner.monitor_config () in
  let chunk = S.Runner.chunk in
  let mon, recorder =
    span ~name:"monitor.create" (fun () ->
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
        (mon, recorder))
  in
  let onset = Scenario.onset scen in
  let det =
    span ~name:"model.static_claim" (fun () ->
        let static =
          Ptrng_measure.Thermal_extract.of_phase ~f0:Pair.paper_f0 Pair.paper_relative
        in
        M.Detection.create ?onset_period:onset
          ~static_r:(Ptrng_measure.Thermal_extract.r_n static cfg.judge_n)
          ~static_entropy:(Ptrng_model.Design.entropy_at ~extract:static ~divisor:e.divisor)
          ())
  in
  let stream =
    span ~name:"osc.pair_stream" (fun () ->
        Pair.stream ~flicker_block:chunk ~scenario:scen (rng_of seed) (Pair.paper_pair ()))
  in
  let p1 = FA.create chunk and p2 = FA.create chunk and jbuf = FA.create chunk in
  let pos = ref 0 in
  while !pos < e.periods do
    let t0 = Monotonic_clock.now () in
    let len = min chunk (e.periods - !pos) in
    span ~name:(fill_span !pos) (fun () -> Pair.fill stream ~p1 ~p2 ~len);
    span ~name:"bench.glue" (fun () -> relative_jitter ~p1 ~p2 ~dst:jbuf ~len);
    span ~name:"monitor.feed_jitter_chunk" (fun () ->
        M.Monitor.feed_jitter_chunk mon jbuf ~len);
    let bits =
      span ~name:"trng.sampler" (fun () ->
          let osc1_edges = S.Runner.edges_of p1 len in
          let osc2_edges = S.Runner.edges_of p2 len in
          Ptrng_trng.Sampler.sample ~osc1_edges ~osc2_edges ~divisor:e.divisor)
    in
    span ~name:"monitor.feed_bits" (fun () -> M.Monitor.feed_bits mon bits);
    pos := !pos + len;
    let snap = span ~name:"monitor.snapshot" (fun () -> M.Monitor.snapshot mon) in
    let live_entropy =
      span ~name:"model.live_claim" (fun () ->
          live_entropy_claim ~f0:cfg.f0 ~divisor:e.divisor snap)
    in
    span ~name:"monitor.detection_observe" (fun () ->
        M.Detection.observe det ~live_entropy snap);
    FA.set chunk_s !chunk_i (elapsed_s t0);
    incr chunk_i
  done;
  span ~name:"monitor.report" (fun () ->
      let snap = M.Monitor.snapshot mon in
      let detection = M.Detection.summary det in
      let frozen = M.Flight_recorder.incidents recorder in
      let summary inc =
        match M.Flight_recorder.summary_json recorder inc with
        | Json.Obj kvs ->
          Json.Obj (kvs @ [ ("attribution_match", attribution_match detection inc) ])
        | j -> j
      in
      {
        S.Runner.name = Scenario.name scen;
        description = Scenario.description scen;
        expected = e.expected;
        seed;
        periods = e.periods;
        divisor = e.divisor;
        onset;
        detection;
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
        incident_summaries = List.map summary frozen;
      })

let scenario_matrix =
  let setup ~seed ~shift =
    let entries =
      List.map
        (fun name ->
          match S.Registry.find name with
          | Some e -> { e with S.Registry.periods = e.periods asr shift }
          | None -> invalid_arg ("unknown scenario " ^ name))
        scenario_names
    in
    let chunks =
      List.fold_left
        (fun acc (e : S.Registry.entry) -> acc + ((e.periods + S.Runner.chunk - 1) / S.Runner.chunk))
        0 entries
    in
    {
      periods = List.fold_left (fun acc (e : S.Registry.entry) -> acc + e.periods) 0 entries;
      calls = List.length entries;
      run =
        (fun lat ->
          scenario_outcome
            (List.mapi
               (fun i e -> scenario_entry (timed_call lat i (fun () -> S.Runner.run ~seed e)))
               entries));
      replica =
        (fun () ->
          let chunk_s = FA.make chunks 0.0 and chunk_i = ref 0 in
          let results =
            List.map (fun e -> scenario_entry (scenario_replica ~seed ~chunk_s ~chunk_i e)) entries
          in
          let chunk_ms = FA.map_to_array (fun s -> s *. 1e3) chunk_s in
          Span.set_attr "scenario.chunks" (Json.Int chunks);
          Span.set_attr "scenario.chunk_ms.p50" (Json.num (Stats.percentile chunk_ms 50.0));
          Span.set_attr "scenario.chunk_ms.p95" (Json.num (Stats.percentile chunk_ms 95.0));
          scenario_outcome results);
      probes = no_probes;
    }
  in
  { name = "scenario-matrix"; setup }

(* ---------------------------------------------------------------- *)
(* monitor-replay: a captured trace replayed into the live monitor. *)

let replay_chunk = 8192
let replay_bit_chunk = 2048

(* One tick: a jitter chunk, a bit chunk and, every 8th tick, a
   snapshot and /health read as a scrape would.  Indexing and the clock
   reads allocate nothing, so the minor words a repetition allocates
   are the monitor's own (the smoke run checks this with no-op feeds). *)
let tick_loop ~ticks ~(jitter : FA.t array) ~(bits : bool array array) ~lat
    ~feed_jitter ~feed_bits ~poll =
  let nj = Array.length jitter and nb = Array.length bits in
  for t = 0 to ticks - 1 do
    let t0 = Monotonic_clock.now () in
    feed_jitter (Array.unsafe_get jitter (t mod nj));
    feed_bits (Array.unsafe_get bits (t mod nb));
    if t land 7 = 7 then poll ();
    FA.set lat t (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9)
  done

let replay_outcome ~ticks mon recorder =
  let s = M.Monitor.snapshot mon in
  {
    fingerprint =
      String.concat " "
        [
          string_of_int s.periods; string_of_int s.bits; string_of_int s.windows;
          hex s.r_judge; hex s.k_est; string_of_int s.rct_alarms;
          string_of_int s.apt_alarms; string_of_int s.ais31_alarms;
          string_of_int s.recoveries;
          string_of_int (M.Flight_recorder.incident_count recorder);
          Json.to_string (M.Monitor.health_json mon);
        ];
    checks =
      [
        ( "monitor-replay.consumed_everything",
          s.periods = ticks * replay_chunk && s.bits = ticks * replay_bit_chunk );
        ("monitor-replay.verdict_ok", s.verdict.status = M.Verdict.Ok);
      ];
  }

let monitor_replay =
  let setup ~seed ~shift =
    let n = 1 lsl (22 - shift) in
    let ticks = 8192 asr shift in
    let rng = rng_of seed in
    let bit_rng = Rng.split rng in
    let st = Pair.stream ~flicker_block:65536 rng (Pair.paper_pair ()) in
    let p1 = FA.create replay_chunk and p2 = FA.create replay_chunk in
    let jitter =
      Array.init (n / replay_chunk) (fun _ ->
          Pair.fill st ~p1 ~p2 ~len:replay_chunk;
          let c = FA.create replay_chunk in
          relative_jitter ~p1 ~p2 ~dst:c ~len:replay_chunk;
          c)
    in
    let bits =
      Array.init (n / replay_bit_chunk) (fun _ ->
          Array.init replay_bit_chunk (fun _ -> Rng.bool bit_rng))
    in
    let cfg = M.Monitor.default_config ~f0:Pair.paper_f0 in
    let monitor () =
      let mon = M.Monitor.create cfg in
      let recorder =
        M.Flight_recorder.create
          ~provenance:
            {
              kind = "monitor";
              workload = "replay";
              seed;
              divisor = replay_chunk / replay_bit_chunk;
              chunk = replay_chunk;
              flicker_block = 65536;
            }
          ()
      in
      M.Monitor.attach_recorder mon recorder;
      (mon, recorder)
    in
    let run lat =
      let mon, recorder = monitor () in
      tick_loop ~ticks ~jitter ~bits ~lat
        ~feed_jitter:(fun c -> M.Monitor.feed_jitter_chunk mon c ~len:replay_chunk)
        ~feed_bits:(M.Monitor.feed_bits mon)
        ~poll:(fun () ->
          ignore (M.Monitor.snapshot mon);
          ignore (M.Monitor.health_json mon));
      replay_outcome ~ticks mon recorder
    in
    let replica () =
      let mon, recorder = span ~name:"monitor.create" monitor in
      tick_loop ~ticks ~jitter ~bits ~lat:(FA.create ticks)
        ~feed_jitter:(fun c ->
          span ~name:"monitor.feed_jitter_chunk" (fun () ->
              M.Monitor.feed_jitter_chunk mon c ~len:replay_chunk))
        ~feed_bits:(fun b -> span ~name:"monitor.feed_bits" (fun () -> M.Monitor.feed_bits mon b))
        ~poll:(fun () ->
          ignore (span ~name:"monitor.snapshot" (fun () -> M.Monitor.snapshot mon));
          ignore (span ~name:"monitor.health_json" (fun () -> M.Monitor.health_json mon)));
      Span.set_attr "monitor.recorder.incidents" (Json.Int (M.Flight_recorder.incident_count recorder));
      span ~name:"monitor.report" (fun () -> replay_outcome ~ticks mon recorder)
    in
    (* The monitor's three per-sample consumers fed standalone over the
       same inputs: the split of feed_jitter_chunk and feed_bits. *)
    let probes () =
      let total_ns f =
        fst (timed (fun () -> for t = 0 to ticks - 1 do f t done)) *. 1e9
      in
      let rn =
        M.Rn_estimator.create ~ns:cfg.ns ~realizations:cfg.realizations
          ~min_realizations:cfg.min_realizations ~f0:cfg.f0 ()
      in
      let health =
        Ptrng_sp90b.Health.monitor_of_entropy ~alpha_exp:cfg.sp_alpha_exp
          ~window:cfg.sp_window ~h:cfg.h_claim ()
      in
      let online =
        Ptrng_ais31.Online.create ~block_bits:cfg.ais31_block
          ~alpha_exp:cfg.ais31_alpha_exp ()
      in
      let nj = Array.length jitter and nb = Array.length bits in
      let samples = float_of_int (ticks * replay_chunk) in
      let nbits = float_of_int (ticks * replay_bit_chunk) in
      let rn_ns =
        total_ns (fun t ->
            M.Rn_estimator.feed_many rn jitter.(t mod nj) ~len:replay_chunk)
      in
      let health_ns =
        total_ns (fun t ->
            Array.iter
              (fun b -> ignore (Ptrng_sp90b.Health.monitor_feed_flags health b))
              bits.(t mod nb))
      in
      let online_ns =
        total_ns (fun t ->
            Array.iter (fun b -> ignore (Ptrng_ais31.Online.feed_flag online b)) bits.(t mod nb))
      in
      ( [
          ("monitor.rn_estimator.ns_per_sample", rn_ns /. samples);
          ("sp90b.health.ns_per_bit", health_ns /. nbits);
          ("ais31.online.ns_per_bit", online_ns /. nbits);
        ],
        [
          ( "monitor-replay.probes_saw_every_sample",
            M.Rn_estimator.samples rn = ticks * replay_chunk
            && Ptrng_sp90b.Health.monitor_samples health = ticks * replay_bit_chunk );
        ] )
    in
    { periods = ticks * replay_chunk; calls = ticks; run; replica; probes }
  in
  { name = "monitor-replay"; setup }

(* ---------------------------------------------------------------- *)
(* trng-generate: batch bitstream generation for evaluation.        *)

let trng_outcome ~full ~bits b =
  let module B = Ptrng_trng.Bitstream in
  {
    fingerprint = Bytes.to_string (B.to_bytes b) ^ string_of_int (B.length b);
    checks =
      ("trng-generate.length", B.length b = bits)
      :: (if full then [ ("trng-generate.bias_below_5pct", Float.abs (B.bias b) < 0.05) ]
          else []);
  }

let trng_generate =
  let setup ~seed ~shift =
    let module E = Ptrng_trng.Ero_trng in
    let cfg = E.paper_trng () in
    let bits = 4096 asr shift in
    (* Ero_trng.generate_raw's sizing: enough Osc2 cycles for [bits]
       samples plus a margin for the frequency mismatch. *)
    let cycles = (bits + 2) * cfg.divisor in
    let n = cycles + (cycles / 64) + 16 in
    let full = shift = 0 in
    let replica () =
      let p1, p2 =
        span ~name:"osc.pair_simulate" (fun () -> Pair.simulate (rng_of seed) cfg.pair ~n)
      in
      let osc1_edges, osc2_edges =
        span ~name:"osc.edges_of_periods" (fun () ->
            ( Ptrng_osc.Oscillator.edges_of_periods p1,
              Ptrng_osc.Oscillator.edges_of_periods p2 ))
      in
      let raw =
        span ~name:"trng.sampler" (fun () ->
            Ptrng_trng.Sampler.sample ~osc1_edges ~osc2_edges ~divisor:cfg.divisor)
      in
      trng_outcome ~full ~bits
        (span ~name:"trng.bitstream" (fun () ->
             Ptrng_trng.Bitstream.of_bools
               (if Array.length raw < bits then raw else Array.sub raw 0 bits)))
    in
    (* Pair.simulate at 2 domains against 1: the pool's speedup on the
       whole-array synthesis, and its bit-identity guarantee. *)
    let probes () =
      let simulate domains = timed (fun () -> Pair.simulate ~domains (rng_of seed) cfg.pair ~n) in
      let t1, r1 = simulate 1 in
      let t2, r2 = simulate 2 in
      ( [ ("exec.speedup_2dom", t1 /. t2) ],
        [ ("trng-generate.simulate_2dom_identical", r1 = r2) ] )
    in
    {
      periods = n;
      calls = 1;
      run =
        (fun lat ->
          trng_outcome ~full ~bits
            (timed_call lat 0 (fun () -> E.generate (rng_of seed) cfg ~bits)));
      replica;
      probes;
    }
  in
  { name = "trng-generate"; setup }

let all = [ characterize; scenario_matrix; monitor_replay; trng_generate ]
