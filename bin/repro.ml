(* Command-line reproduction driver for Haddad et al., DATE 2014:
   "On the assumption of mutual independence of jitter realizations in
   P-TRNG stochastic models".  One sub-command per experiment; see
   EXPERIMENTS.md for the mapping to the paper's figures. *)

let paper_f0 = Ptrng_osc.Pair.paper_f0
let paper_phase = Ptrng_osc.Pair.paper_relative

let make_rng seed = Ptrng_prng.Rng.create ~seed:(Int64.of_int seed) ()

let line = String.make 78 '-'

let print_header title =
  Printf.printf "%s\n%s\n%s\n" line title line

(* ---------------------------------------------------------------- *)
(* fig7                                                             *)
(* ---------------------------------------------------------------- *)

let write_fig7_csv path (analysis : Ptrng_model.Multilevel.analysis) =
  let oc = open_out path in
  Printf.fprintf oc "n,ideal_scaled,counter_scaled,model_scaled\n";
  let counter_at n =
    Array.fold_left
      (fun acc (p : Ptrng_measure.Variance_curve.point) ->
        if p.n = n then Some p.scaled else acc)
      None analysis.counter_curve
  in
  Array.iter
    (fun (p : Ptrng_measure.Variance_curve.point) ->
      let model = Ptrng_model.Spectral.scaled paper_phase ~f0:paper_f0 ~n:p.n in
      let counter =
        match counter_at p.n with Some v -> Printf.sprintf "%.8e" v | None -> ""
      in
      Printf.fprintf oc "%d,%.8e,%s,%.8e\n" p.n p.scaled counter model)
    analysis.ideal_curve;
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let run_fig7 seed log2_periods csv =
  let rng = make_rng seed in
  let n_periods = 1 lsl log2_periods in
  print_header
    (Printf.sprintf
       "Fig. 7 — f0^2 sigma_N^2 vs N  (simulated trace: 2^%d periods, seed %d)"
       log2_periods seed);
  let analysis =
    Ptrng_model.Multilevel.characterize ~n_periods ~rng (Ptrng_osc.Pair.paper_pair ())
  in
  Printf.printf "%8s  %14s  %14s  %14s  %8s\n" "N" "ideal" "counter" "paper model"
    "neff";
  let counter_at n =
    Array.fold_left
      (fun acc (p : Ptrng_measure.Variance_curve.point) ->
        if p.n = n then Some p.scaled else acc)
      None analysis.counter_curve
  in
  Array.iter
    (fun (p : Ptrng_measure.Variance_curve.point) ->
      let model = Ptrng_model.Spectral.scaled paper_phase ~f0:paper_f0 ~n:p.n in
      let counter =
        match counter_at p.n with Some v -> Printf.sprintf "%14.6e" v | None -> "             -"
      in
      Printf.printf "%8d  %14.6e  %s  %14.6e  %8d\n" p.n p.scaled counter model p.neff)
    analysis.ideal_curve;
  let fit = analysis.fit in
  Printf.printf "\nfit:  f0^2 sigma_N^2 = a N + b N^2\n";
  Printf.printf "  a = %.4e +- %.1e   (paper: 5.36e-6)\n" fit.a fit.a_se;
  Printf.printf "  b = %.4e +- %.1e   (paper: 5.36e-6/5354 = 1.001e-9)\n" fit.b fit.b_se;
  let slope, se = analysis.growth_exponent in
  Printf.printf "  log-log growth exponent: %.3f +- %.3f (1 = independent, 2 = flicker)\n"
    slope se;
  let e = analysis.extract in
  Printf.printf "\nextraction:\n";
  Printf.printf "  b_th  = %10.2f      (paper: 276.04)\n" e.phase.Ptrng_noise.Psd_model.b_th;
  Printf.printf "  b_fl  = %10.4e  (paper: %.4e)\n" e.phase.Ptrng_noise.Psd_model.b_fl
    paper_phase.Ptrng_noise.Psd_model.b_fl;
  Printf.printf "  sigma = %10.3f ps   (paper: 15.89 ps)\n" (e.sigma_thermal *. 1e12);
  Printf.printf "  sigma/T0 = %7.3f permil (paper: 1.6 permil)\n"
    (e.sigma_relative *. 1e3);
  Printf.printf "  k     = %10.0f      (paper: 5354, r_N = k/(k+N))\n" e.k_ratio;
  Printf.printf "  N(r_N > 95%%) = %d      (paper: 281)\n"
    (Ptrng_measure.Thermal_extract.independence_threshold e ~confidence:0.95);
  (match csv with None -> () | Some path -> write_fig7_csv path analysis);
  0

(* ---------------------------------------------------------------- *)
(* extract                                                          *)
(* ---------------------------------------------------------------- *)

let run_extract seed log2_periods =
  let rng = make_rng seed in
  let analysis =
    Ptrng_model.Multilevel.characterize ~n_periods:(1 lsl log2_periods) ~rng
      (Ptrng_osc.Pair.paper_pair ())
  in
  let e = analysis.extract in
  print_header "Sections III-E & IV-B — thermal-noise extraction";
  Printf.printf "%-34s %14s %14s\n" "quantity" "measured" "paper";
  Printf.printf "%-34s %14.2f %14.2f\n" "b_th [Hz]" e.phase.Ptrng_noise.Psd_model.b_th 276.04;
  Printf.printf "%-34s %14.4e %14.4e\n" "b_fl" e.phase.Ptrng_noise.Psd_model.b_fl
    paper_phase.Ptrng_noise.Psd_model.b_fl;
  Printf.printf "%-34s %14.3f %14.3f\n" "thermal period jitter sigma [ps]"
    (e.sigma_thermal *. 1e12) 15.89;
  Printf.printf "%-34s %14.3f %14.3f\n" "sigma / T0 [permil]" (e.sigma_relative *. 1e3) 1.6;
  Printf.printf "%-34s %14.0f %14.0f\n" "k (r_N = k/(k+N))" e.k_ratio 5354.0;
  Printf.printf "%-34s %14d %14d\n" "N threshold at r_N > 95%"
    (Ptrng_measure.Thermal_extract.independence_threshold e ~confidence:0.95)
    281;
  Printf.printf "\nr_N table (measured k):\n";
  List.iter
    (fun n ->
      Printf.printf "  r_%-6d = %.4f\n" n (Ptrng_measure.Thermal_extract.r_n e n))
    [ 10; 100; 281; 1000; 5354; 50000 ];
  0

(* ---------------------------------------------------------------- *)
(* entropy                                                          *)
(* ---------------------------------------------------------------- *)

let run_entropy sampling_periods =
  print_header
    (Printf.sprintf
       "Ablation A — entropy overestimation by the independence assumption (K = %d)"
       sampling_periods);
  let extract = Ptrng_measure.Thermal_extract.of_phase ~f0:paper_f0 paper_phase in
  let ns = [| 10; 50; 100; 281; 1000; 5354; 20000; 100000 |] in
  let rows = Ptrng_model.Compare.overestimation_table ~extract ~sampling_periods ~ns in
  Printf.printf "%8s  %16s  %14s  %14s  %14s\n" "N" "sigma_naive [ps]" "H_naive"
    "H_true" "overestimate";
  Array.iter
    (fun (r : Ptrng_model.Compare.row) ->
      Printf.printf "%8d  %16.3f  %14.6f  %14.6f  %14.6f\n" r.n
        (r.sigma_naive *. 1e12) r.entropy_naive r.entropy_true r.overestimate)
    rows;
  Printf.printf
    "\nsigma_naive = sqrt(sigma_N^2 / 2N): what a model assuming independent\n\
     jitter infers from a measurement over N periods.  H is Shannon entropy\n\
     per raw bit for a sampling interval of K oscillator periods.\n";
  0

(* ---------------------------------------------------------------- *)
(* scaling                                                          *)
(* ---------------------------------------------------------------- *)

let run_scaling () =
  print_header
    "Ablation B — technology scaling of the independence threshold (Sec. V)";
  Printf.printf "%-16s %10s %12s %12s %12s %10s\n" "node" "f0 [MHz]" "b_th" "b_fl"
    "corner [Hz]" "N(95%)";
  List.iter
    (fun node ->
      let ring = Ptrng_device.Technology.ring node in
      let phase = ring.Ptrng_device.Technology.phase in
      let threshold =
        Ptrng_device.Technology.independence_threshold_n phase
          ~f0:ring.Ptrng_device.Technology.f0 ~confidence:0.95
      in
      Printf.printf "%-16s %10.1f %12.4e %12.4e %12.4e %10d\n"
        node.Ptrng_device.Technology.name
        (ring.Ptrng_device.Technology.f0 /. 1e6)
        phase.Ptrng_noise.Psd_model.b_th phase.Ptrng_noise.Psd_model.b_fl
        (Ptrng_noise.Psd_model.corner_frequency phase)
        threshold)
    Ptrng_device.Technology.presets;
  Printf.printf
    "\nShrinking L raises the flicker coefficient as 1/L^2 (paper Sec. V):\n\
     the accumulation length below which jitter realizations may be treated\n\
     as independent collapses with every node.\n";
  0

(* ---------------------------------------------------------------- *)
(* online                                                           *)
(* ---------------------------------------------------------------- *)

let run_online seed kind strength =
  print_header "Ablation C — embedded thermal-noise test (paper conclusion)";
  let pair = Ptrng_osc.Pair.paper_pair () in
  let attacked = Ptrng_trng.Attack.(apply (make kind ~strength)) pair in
  let cfg =
    { Ptrng_measure.Online_test.ns = [| 4096; 16384; 65536; 262144 |];
      windows = 96; min_fraction = 0.4 }
  in
  let cycles = Ptrng_measure.Online_test.required_cycles cfg in
  Printf.printf "attack = %s (strength %.2f); simulating %d oscillator cycles...\n%!"
    (Ptrng_trng.Attack.kind_name kind) strength cycles;
  let n = cycles + 8192 in
  (* Streamed trajectory: the online test wants global edge times, so
     the cumulative sums run across chunk boundaries while the two
     period buffers are reused — peak memory is two edge arrays
     instead of two edge arrays plus two full period arrays. *)
  let chunk = 262144 in
  let stream = Ptrng_osc.Pair.stream ~flicker_block:chunk (make_rng seed) attacked in
  let p1 = Float.Array.create chunk in
  let p2 = Float.Array.create chunk in
  let edges1 = Array.make (n + 1) 0.0 in
  let edges2 = Array.make (n + 1) 0.0 in
  let pos = ref 0 in
  while !pos < n do
    let len = min chunk (n - !pos) in
    Ptrng_osc.Pair.fill stream ~p1 ~p2 ~len;
    for i = 0 to len - 1 do
      edges1.(!pos + i + 1) <- edges1.(!pos + i) +. Float.Array.get p1 i;
      edges2.(!pos + i + 1) <- edges2.(!pos + i) +. Float.Array.get p2 i
    done;
    pos := !pos + len
  done;
  let v =
    Ptrng_measure.Online_test.run cfg ~f0:paper_f0 ~reference_b_th:276.04 ~edges1
      ~edges2
  in
  Printf.printf "estimated b_th      : %10.2f   (reference 276.04)\n" v.b_th_est;
  Printf.printf "estimated sigma     : %10.3f ps (reference 15.89)\n"
    (v.sigma_est *. 1e12);
  Printf.printf "quantization floor  : %10.3f counts^2\n" v.floor_est;
  Printf.printf "total var at max N  : %10.3f counts^2 (naive health metric)\n"
    v.total_var_max_n;
  Printf.printf "verdict             : %s\n" (if v.pass then "PASS" else "ALARM");
  0

(* ---------------------------------------------------------------- *)
(* trng                                                             *)
(* ---------------------------------------------------------------- *)

let run_trng seed bits divisor xor_factor ais31 nist sp90b =
  print_header "eRO-TRNG bit generation (paper Fig. 4)";
  let cfg =
    Ptrng_trng.Ero_trng.config ~divisor ~xor_factor (Ptrng_osc.Pair.paper_pair ())
  in
  Printf.printf "divisor %d, xor factor %d, target %d raw bits; simulating...\n%!"
    divisor xor_factor bits;
  let stream = Ptrng_trng.Ero_trng.generate (make_rng seed) cfg ~bits in
  Printf.printf "produced %d bits  bias = %+.4f  serial correlation = %+.4f\n"
    (Ptrng_trng.Bitstream.length stream)
    (Ptrng_trng.Bitstream.bias stream)
    (Ptrng_trng.Bitstream.serial_correlation stream);
  if ais31 then begin
    if Ptrng_trng.Bitstream.length stream >= Ptrng_ais31.Procedure_a.block_bits then begin
      Printf.printf "\nAIS31 procedure A:\n";
      let summary = Ptrng_ais31.Procedure_a.run stream in
      Format.printf "%a@." Ptrng_ais31.Report.pp summary
    end
    else
      Printf.printf "\n(not enough bits for AIS31 procedure A: need %d)\n"
        Ptrng_ais31.Procedure_a.block_bits;
    if Ptrng_trng.Bitstream.length stream >= 2000 then begin
      Printf.printf "\nAIS31 procedure B (subset for available bits):\n";
      let summary = Ptrng_ais31.Procedure_b.run stream in
      Format.printf "%a@." Ptrng_ais31.Report.pp summary
    end
  end;
  if nist then begin
    Printf.printf "\nNIST SP 800-22 battery:\n";
    let results = Ptrng_nist22.Sp80022.run_all (Ptrng_trng.Bitstream.to_bools stream) in
    Format.printf "%a@." Ptrng_nist22.Sp80022.pp_results results
  end;
  if sp90b then begin
    Printf.printf "\nSP 800-90B min-entropy estimators:\n";
    let estimates, aggregate =
      Ptrng_sp90b.Estimators.run_all (Ptrng_trng.Bitstream.to_bools stream)
    in
    List.iter
      (fun (e : Ptrng_sp90b.Estimators.estimate) ->
        Printf.printf "  %-20s p_max %.4f  min-entropy %.4f\n" e.name e.p_max
          e.min_entropy)
      estimates;
    Printf.printf "  aggregate min-entropy: %.4f bit/bit\n" aggregate
  end;
  0

(* ---------------------------------------------------------------- *)
(* assess                                                           *)
(* ---------------------------------------------------------------- *)

let run_assess seed bits divisor =
  print_header "Full TRNG assessment (AIS31 + SP 800-22 + SP 800-90B + health)";
  let cfg = Ptrng_trng.Ero_trng.config ~divisor (Ptrng_osc.Pair.paper_pair ()) in
  Printf.printf "simulating %d bits at divisor %d...\n%!" bits divisor;
  let stream = Ptrng_trng.Ero_trng.generate (make_rng seed) cfg ~bits in
  let t = Ptrng_report.Assessment.evaluate stream in
  Format.printf "%a@." Ptrng_report.Assessment.pp t;
  match t.verdict with `Fail -> 1 | `Pass | `Caution -> 0

(* ---------------------------------------------------------------- *)
(* allan                                                            *)
(* ---------------------------------------------------------------- *)

let run_allan seed log2_periods =
  print_header "Allan deviation of the relative frequency (time-domain view)";
  let model = Ptrng_noise.Psd_model.frac_freq_of_phase ~f0:paper_f0 paper_phase in
  Printf.printf "white FM level h0   = %.4e, flicker level h-1 = %.4e\n"
    model.Ptrng_noise.Psd_model.h0 model.Ptrng_noise.Psd_model.hm1;
  Printf.printf "predicted crossover = %.1f us (k/f0 = 5354 periods)\n\n"
    (Ptrng_stats.Allan.crossover_tau ~h0:model.Ptrng_noise.Psd_model.h0
       ~hm1:model.Ptrng_noise.Psd_model.hm1
    *. 1e6);
  let n = 1 lsl log2_periods in
  let pair = Ptrng_osc.Pair.paper_pair () in
  let p1, p2 = Ptrng_osc.Pair.simulate (make_rng seed) pair ~n in
  let t0 = 1.0 /. paper_f0 in
  let y =
    Ptrng_signal.Filter.remove_mean
      (Array.init n (fun k -> (p1.(k) -. p2.(k)) /. t0))
  in
  Printf.printf "%10s  %12s  %26s  %12s\n" "tau [us]" "adev" "68% CI" "model adev";
  Array.iter
    (fun (pt : Ptrng_stats.Allan.point) ->
      let lo, hi = Ptrng_stats.Allan.confidence_interval pt in
      let model_avar =
        Ptrng_stats.Allan.avar_white_fm ~h0:model.Ptrng_noise.Psd_model.h0 ~tau:pt.tau
        +. Ptrng_stats.Allan.avar_flicker_fm ~hm1:model.Ptrng_noise.Psd_model.hm1
      in
      Printf.printf "%10.2f  %12.4e  [%11.4e,%11.4e]  %12.4e\n" (pt.tau *. 1e6)
        (sqrt pt.avar) (sqrt lo) (sqrt hi) (sqrt model_avar))
    (Ptrng_stats.Allan.sweep ~tau0:t0 ~ms:(Ptrng_stats.Allan.octave_ms ~n) y);
  0

(* ---------------------------------------------------------------- *)
(* design                                                           *)
(* ---------------------------------------------------------------- *)

let run_design target =
  print_header
    (Printf.sprintf "Sampler design for %.3f bit/bit (thermal-only crediting)" target);
  let extract = Ptrng_measure.Thermal_extract.of_phase ~f0:paper_f0 paper_phase in
  let k = Ptrng_model.Design.required_divisor ~target ~extract () in
  Printf.printf "thermal sigma          : %.2f ps (%.2f permil of T0)\n"
    (extract.sigma_thermal *. 1e12)
    (extract.sigma_relative *. 1e3);
  Printf.printf "required divisor K     : %d periods/sample\n" k;
  Printf.printf "delivered entropy      : %.5f bit/bit\n"
    (Ptrng_model.Design.entropy_at ~extract ~divisor:k);
  Printf.printf "raw throughput         : %.1f kbit/s at %.0f MHz\n"
    (Ptrng_model.Design.throughput ~extract ~divisor:k /. 1e3)
    (paper_f0 /. 1e6);
  Printf.printf "\nWhat the independence assumption would have done:\n";
  List.iter
    (fun measured_at ->
      let naive =
        Ptrng_model.Design.naive_divisor ~target ~extract ~measured_at ()
      in
      Printf.printf
        "  jitter measured over N=%6d -> K = %6d, true entropy %.4f bit/bit\n"
        measured_at naive
        (Ptrng_model.Design.entropy_at ~extract ~divisor:naive))
    [ 1000; 10000; 100000 ];
  0

(* ---------------------------------------------------------------- *)
(* monitor                                                          *)
(* ---------------------------------------------------------------- *)

(* "5s", "500ms", "2m" or a bare float (seconds). *)
let parse_duration s =
  let s = String.trim s in
  let len = String.length s in
  let num, mult =
    if len > 2 && String.sub s (len - 2) 2 = "ms" then
      (String.sub s 0 (len - 2), 1e-3)
    else if len > 1 && s.[len - 1] = 's' then (String.sub s 0 (len - 1), 1.0)
    else if len > 1 && s.[len - 1] = 'm' then (String.sub s 0 (len - 1), 60.0)
    else (s, 1.0)
  in
  match float_of_string_opt (String.trim num) with
  | Some v when v > 0.0 -> Ok (v *. mult)
  | _ -> Error (Printf.sprintf "bad duration %S (try 5s, 500ms, 2m)" s)

let run_monitor seed duration periods kind strength divisor listen refresh
    dashboard =
  let module M = Ptrng_monitor in
  (* The observatory instruments itself through the telemetry layer;
     the gauges and counter tracks must be live for /metrics to serve
     anything, so this sub-command enables telemetry unconditionally. *)
  Ptrng_telemetry.Registry.enable ();
  let attack = Ptrng_trng.Attack.make kind ~strength in
  let attacked = Ptrng_trng.Attack.apply attack (Ptrng_osc.Pair.paper_pair ()) in
  let mon = M.Monitor.create (M.Monitor.default_config ~f0:paper_f0) in
  (* One continuous stream; the flicker phase carries across chunks,
     the sampler's edge phase does not (Runner.step restarts it). *)
  let chunk = 262144 in
  (* The flight recorder rides along on every monitor run: the
     provenance records exactly how to rebuild this stream, so a frozen
     incident can be replayed offline with `repro postmortem`. *)
  let recorder =
    M.Flight_recorder.create
      ~provenance:
        {
          M.Flight_recorder.kind = "monitor";
          workload = Ptrng_trng.Attack.to_string attack;
          seed;
          divisor;
          chunk;
          flicker_block = chunk;
        }
      ()
  in
  M.Monitor.attach_recorder mon recorder;
  let server =
    match listen with
    | None -> None
    | Some port ->
      let s = M.Monitor.serve ~port mon in
      Printf.printf "monitor: serving %s/metrics, %s/health and %s/incidents\n%!"
        (M.Http.url s) (M.Http.url s) (M.Http.url s);
      Some s
  in
  let rng = make_rng seed in
  let now () = Ptrng_telemetry.Clock.now () in
  let deadline = now () +. duration in
  let processed = ref 0 in
  let next_refresh = ref 0.0 in
  let continue () =
    match periods with
    | Some p -> !processed < p
    | None -> now () < deadline
  in
  if not dashboard then
    Printf.printf "monitor: attack %s (strength %.2f), divisor %d, %s...\n%!"
      (Ptrng_trng.Attack.kind_name kind) strength divisor
      (match periods with
      | Some p -> Printf.sprintf "%d periods" p
      | None -> Printf.sprintf "%.1fs" duration);
  let stream = Ptrng_osc.Pair.stream ~flicker_block:chunk rng attacked in
  let feed = Ptrng_scenario.Runner.step ~chunk ~divisor stream mon in
  while continue () do
    feed ~len:chunk;
    processed := !processed + chunk;
    if dashboard && now () >= !next_refresh then begin
      next_refresh := now () +. refresh;
      print_string
        (M.Dashboard.clear_screen ^ M.Dashboard.render (M.Monitor.snapshot mon));
      flush stdout
    end
  done;
  let s = M.Monitor.snapshot mon in
  if dashboard then print_string M.Dashboard.clear_screen;
  print_header "Live entropy-health observatory — final state";
  print_string (M.Dashboard.render ~color:dashboard s);
  Printf.printf "\nincidents captured: %d\n"
    (M.Flight_recorder.incident_count recorder);
  Printf.printf "verdict: %s\n" (M.Verdict.status_string s.verdict.status);
  Option.iter M.Http.stop server;
  match s.verdict.status with
  | M.Verdict.Ok -> 0
  | M.Verdict.Degraded -> 1
  | M.Verdict.Failing -> 2

(* ---------------------------------------------------------------- *)
(* scenario                                                         *)
(* ---------------------------------------------------------------- *)

let run_scenario selected all list_only seed json_out incidents_out
    expect_within expect_recover expect_lie_r expect_clean expect_incidents =
  let module S = Ptrng_scenario in
  let module Sc = Ptrng_device.Scenario in
  if list_only then begin
    print_header "Scenario matrix";
    List.iter
      (fun (e : S.Registry.entry) ->
        Printf.printf "%-16s %s\n%-16s expected: %s\n"
          (Sc.name e.scenario) (Sc.description e.scenario) "" e.expected)
      (S.Registry.all ());
    0
  end
  else begin
    let entries = if all || selected = [] then S.Registry.all () else selected in
    print_header "Adversarial & environmental scenario engine";
    let results =
      List.map
        (fun (e : S.Registry.entry) ->
          Printf.printf "%-16s %s\n%!" (Sc.name e.scenario)
            (Sc.description e.scenario);
          let r = S.Runner.run ~seed e in
          let d = r.S.Runner.detection in
          (match d.detected with
          | None -> Printf.printf "  detected : no\n"
          | Some a ->
            Printf.printf
              "  detected : %s at period %d (latency %d periods, %d bits, %d \
               windows)\n"
              a.detector a.at_period a.latency_periods a.latency_bits
              a.latency_windows);
          (match d.recovered with
          | None -> ()
          | Some x ->
            Printf.printf "  recovered: verdict ok at period %d (window %d)\n"
              x.at_period x.at_window);
          Printf.printf "  pre-onset false alarms: %d\n" d.false_alarms;
          if d.lie_margin_r > 0.0 || d.lie_margin_entropy > 0.0 then
            Printf.printf
              "  silent lie: static claims r=%.3f h=%.3f; live fell to \
               r=%.3f h=%.3f (margin %.3f / %.3f)\n"
              d.static_r d.static_entropy d.live_r d.live_entropy
              d.lie_margin_r d.lie_margin_entropy;
          Printf.printf "  final    : %s (r=%.3f, k=%.0f, %d bits, %d \
                         recoveries)\n"
            (Ptrng_monitor.Verdict.status_string r.final_status)
            r.final_r r.final_k r.bits r.recoveries;
          if r.incidents <> [] then
            Printf.printf "  incidents: %d frozen bundle%s\n"
              (List.length r.incidents)
              (if List.length r.incidents = 1 then "" else "s");
          r)
        entries
    in
    (match json_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc
        (Ptrng_telemetry.Json.to_string_pretty (S.Runner.report_json ~seed results));
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote %s\n" path);
    (match incidents_out with
    | None -> ()
    | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      List.iter
        (fun (r : S.Runner.result) ->
          List.iteri
            (fun i bundle ->
              let path =
                Filename.concat dir (Printf.sprintf "%s-%d.json" r.name i)
              in
              let oc = open_out path in
              output_string oc (Ptrng_telemetry.Json.to_string_pretty bundle);
              output_char oc '\n';
              close_out oc;
              Printf.printf "wrote %s\n" path)
            r.incidents)
        results);
    (* Expectation gates: applied to every selected scenario, so they
       are meant for single-scenario invocations (the smoke gate). *)
    let failures = ref 0 in
    let fail fmt =
      incr failures;
      Printf.printf fmt
    in
    List.iter
      (fun (r : S.Runner.result) ->
        let d = r.detection in
        (match expect_within with
        | None -> ()
        | Some budget -> (
          match d.detected with
          | Some a when a.latency_periods <= budget -> ()
          | Some a ->
            fail "FAIL %s: detection latency %d periods exceeds budget %d\n"
              r.name a.latency_periods budget
          | None ->
            fail "FAIL %s: no detection within the run (budget %d periods)\n"
              r.name budget));
        if expect_recover && d.recovered = None then
          fail "FAIL %s: verdict never recovered to ok\n" r.name;
        (match expect_lie_r with
        | None -> ()
        | Some m ->
          if not (d.lie_margin_r >= m) then
            fail "FAIL %s: r_N lie margin %.4f below the required %.4f\n"
              r.name d.lie_margin_r m);
        (match expect_incidents with
        | None -> ()
        | Some n ->
          let got = List.length r.incidents in
          if got <> n then
            fail "FAIL %s: %d incidents frozen, expected %d\n" r.name got n);
        if expect_clean then begin
          (match d.detected with
          | None -> ()
          | Some a -> fail "FAIL %s: unexpected %s alarm\n" r.name a.detector);
          if d.false_alarms > 0 then
            fail "FAIL %s: %d false alarms on a clean run\n" r.name
              d.false_alarms;
          if r.final_status <> Ptrng_monitor.Verdict.Ok then
            fail "FAIL %s: final verdict %s on a clean run\n" r.name
              (Ptrng_monitor.Verdict.status_string r.final_status)
        end)
      results;
    if !failures > 0 then 1
    else begin
      Printf.printf "\nall expectations met\n";
      0
    end
  end

(* ---------------------------------------------------------------- *)
(* postmortem                                                       *)
(* ---------------------------------------------------------------- *)

let run_postmortem file json_out no_color =
  let module S = Ptrng_scenario in
  match S.Postmortem.load file with
  | Error e ->
    Printf.eprintf "repro postmortem: %s\n" e;
    1
  | Ok bundle ->
    print_header (Printf.sprintf "Post-mortem replay — %s" file);
    print_string (S.Postmortem.timeline ~color:(not no_color) bundle);
    let v : S.Postmortem.verdict = S.Postmortem.verify bundle in
    Printf.printf "\nsegment check (skip + refill) : %s\n"
      (if v.segment_match then "match" else "MISMATCH");
    Printf.printf "full replay (bundle bytes)    : %s\n"
      (if v.bundle_match then "match" else "MISMATCH");
    List.iter (fun e -> Printf.printf "  %s\n" e) v.errors;
    (match json_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc
        (Ptrng_telemetry.Json.to_string_pretty (S.Postmortem.report_json ~file v));
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path);
    if v.segment_match && v.bundle_match then begin
      Printf.printf
        "replay contract holds: incident %d (%s/%s) reproduces bit-identically\n"
        v.id v.kind v.workload;
      0
    end
    else 1

(* ---------------------------------------------------------------- *)
(* selftest                                                         *)
(* ---------------------------------------------------------------- *)

let run_selftest () =
  print_header "Model self-check — eq. 11 closed form vs numeric eq. 9 integral";
  Printf.printf "%8s  %14s  %14s  %10s\n" "N" "closed" "numeric" "rel.err";
  let worst = ref 0.0 in
  List.iter
    (fun n ->
      let closed = Ptrng_model.Spectral.sigma2_n paper_phase ~f0:paper_f0 ~n in
      let numeric = Ptrng_model.Spectral.sigma2_n_numeric paper_phase ~f0:paper_f0 ~n in
      let err = Float.abs ((numeric -. closed) /. closed) in
      if err > !worst then worst := err;
      Printf.printf "%8d  %14.6e  %14.6e  %10.2e\n" n closed numeric err)
    [ 1; 3; 10; 31; 100; 281; 1000; 5354; 31623; 100000 ];
  Printf.printf "\nworst relative error: %.2e -> %s\n" !worst
    (if !worst < 1e-3 then "OK" else "FAIL");
  if !worst < 1e-3 then 0 else 1

(* ---------------------------------------------------------------- *)
(* cmdliner wiring                                                  *)
(* ---------------------------------------------------------------- *)

open Cmdliner

(* ---------------------------------------------------------------- *)
(* telemetry options, shared by every sub-command                   *)
(* ---------------------------------------------------------------- *)

type telemetry_opts = {
  metrics_out : string option;
  trace : bool;
  events : string option;
  prometheus_out : string option;
  perfetto_out : string option;
}

let telemetry_opts =
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Enable telemetry and write the metrics/span snapshot (JSON) to \
             $(docv) on exit.  See docs/OBSERVABILITY.md.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Enable telemetry and print the span trace tree on exit.")
  in
  let events =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Enable telemetry and stream structured events (JSONL, one object \
             per line) to $(docv) while running.")
  in
  let prometheus_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prometheus-out" ] ~docv:"FILE"
          ~doc:
            "Enable telemetry and write the Prometheus text exposition to \
             $(docv) on exit.")
  in
  let perfetto_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto-out" ] ~docv:"FILE"
          ~doc:
            "Enable telemetry, run the GC/domain runtime profiler, and write a \
             Chrome/Perfetto trace_event JSON to $(docv) on exit (open it at \
             ui.perfetto.dev).  See docs/PROFILING.md.")
  in
  Term.(
    const (fun metrics_out trace events prometheus_out perfetto_out ->
        { metrics_out; trace; events; prometheus_out; perfetto_out })
    $ metrics_out $ trace $ events $ prometheus_out $ perfetto_out)

let with_telemetry opts k =
  let module Tm = Ptrng_telemetry in
  let active =
    opts.metrics_out <> None || opts.trace || opts.events <> None
    || opts.prometheus_out <> None || opts.perfetto_out <> None
  in
  if not active then k ()
  else begin
    Tm.Registry.enable ();
    (match opts.events with
    | Some path -> (
      try Tm.Event_log.open_ path
      with Sys_error e ->
        Printf.eprintf "repro: cannot open event log: %s\n" e;
        exit 1)
    | None -> ());
    (* The runtime profiler only runs for perfetto exports: its GC and
       pool counter series are what fill the trace's counter tracks. *)
    if opts.perfetto_out <> None then Tm.Runtime_profile.start ();
    let write what writer path =
      try
        writer path;
        Printf.printf "wrote %s %s\n" what path
      with Sys_error e ->
        Printf.eprintf "repro: cannot write %s: %s\n" what e;
        exit 1
    in
    let finish () =
      Tm.Runtime_profile.stop ();
      (match opts.metrics_out with
      | Some path -> write "metrics snapshot" Tm.Sink.write_snapshot path
      | None -> ());
      (match opts.prometheus_out with
      | Some path -> write "prometheus exposition" Tm.Sink.write_prometheus path
      | None -> ());
      (match opts.perfetto_out with
      | Some path -> write "perfetto trace" Tm.Trace_export.write path
      | None -> ());
      if opts.trace then begin
        print_newline ();
        print_endline "trace:";
        Format.printf "%a@." Tm.Span.pp (Tm.Span.roots ())
      end;
      Tm.Event_log.close ()
    in
    Fun.protect ~finally:finish k
  end

(* A domain count: an integer >= 1, so a bad value is a usage error
   instead of an exception out of Pool.set_default. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let domains_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel sections (default: \
           $(b,PTRNG_DOMAINS), else the machine's recommended count).  \
           Only $(b,trng), $(b,assess) and $(b,allan) reach one (the two \
           rings of Pair.simulate, the SP 800-22 battery); $(b,fig7), \
           $(b,extract), $(b,online), $(b,monitor), $(b,scenario) and the \
           other subcommands run on one domain whatever the value.  \
           Results are bit-identical for every value; see \
           docs/PARALLELISM.md.")

(* Wrap a sub-command body (as a thunk term) with the telemetry and
   parallelism options so every experiment can emit machine-readable
   output.  The body runs inside a [repro.<name>] root span. *)
let instrument name thunk =
  let spanned opts domains k =
    Ptrng_exec.Pool.set_default domains;
    with_telemetry opts (fun () ->
        Ptrng_telemetry.Span.with_ ~name:("repro." ^ name) k)
  in
  Term.(const spanned $ telemetry_opts $ domains_arg $ thunk)

let seed_arg =
  Arg.(value & opt int 2014 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let log2_periods_arg =
  Arg.(
    value
    & opt int 20
    & info [ "log2-periods" ] ~docv:"P"
        ~doc:"Simulate 2^$(docv) oscillator periods (default 20; 22 for a slow, \
              high-precision run).")

let fig7_cmd =
  let doc = "Reproduce Fig. 7: the sigma_N^2 variance curve, fit and extraction." in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the curve as CSV to $(docv).")
  in
  Cmd.v (Cmd.info "fig7" ~doc)
    (instrument "fig7"
       Term.(
         const (fun seed p csv () -> run_fig7 seed p csv)
         $ seed_arg $ log2_periods_arg $ csv_arg))

let extract_cmd =
  let doc = "Reproduce Sections III-E/IV-B: thermal jitter, r_N and the threshold." in
  Cmd.v (Cmd.info "extract" ~doc)
    (instrument "extract"
       Term.(const (fun seed p () -> run_extract seed p) $ seed_arg $ log2_periods_arg))

let entropy_cmd =
  let doc = "Entropy overestimation of the independence-assuming model." in
  let k_arg =
    Arg.(
      value & opt int 300
      & info [ "sampling-periods" ] ~docv:"K"
          ~doc:"Oscillator periods accumulated between samples.")
  in
  Cmd.v (Cmd.info "entropy" ~doc)
    (instrument "entropy" Term.(const (fun k () -> run_entropy k) $ k_arg))

let scaling_cmd =
  let doc = "Technology-node scaling of the independence threshold." in
  Cmd.v (Cmd.info "scaling" ~doc)
    (instrument "scaling" Term.(const (fun () () -> run_scaling ()) $ const ()))

(* [online] and [monitor] parse the attack through the spec: a bad kind
   or strength is a usage error (exit 124) naming the kinds or range. *)
let attack_arg default =
  let pp fmt k = Format.pp_print_string fmt (Ptrng_trng.Attack.kind_name k) in
  Arg.(
    value & opt (conv' (Ptrng_trng.Attack.kind_of_string, pp)) default
    & info [ "attack" ] ~docv:"KIND" ~doc:"none, quench or inject.")

let strength_arg =
  Arg.(
    value
    & opt (conv' (Ptrng_trng.Attack.strength_of_string, Format.pp_print_float)) 0.95
    & info [ "strength" ] ~docv:"S" ~doc:"Attack strength in [0,1).")

let online_cmd =
  let doc = "Embedded thermal-noise health test under attack." in
  Cmd.v (Cmd.info "online" ~doc)
    (instrument "online"
       Term.(
         const (fun seed attack strength () -> run_online seed attack strength)
         $ seed_arg $ attack_arg Ptrng_trng.Attack.Quench $ strength_arg))

let trng_cmd =
  let doc = "Generate bits with the simulated eRO-TRNG and test them." in
  let bits_arg =
    Arg.(value & opt int 20000 & info [ "bits" ] ~docv:"N" ~doc:"Raw bits to produce.")
  in
  let divisor_arg =
    Arg.(
      value & opt int 1000
      & info [ "divisor" ] ~docv:"K" ~doc:"Osc2 cycles between samples.")
  in
  let xor_arg =
    Arg.(value & opt int 1 & info [ "xor" ] ~docv:"K" ~doc:"Parity-filter factor.")
  in
  let ais31_arg =
    Arg.(value & flag & info [ "ais31" ] ~doc:"Run the AIS31 procedures on the output.")
  in
  let nist_arg =
    Arg.(value & flag & info [ "nist" ] ~doc:"Run the SP 800-22 battery on the output.")
  in
  let sp90b_arg =
    Arg.(
      value & flag
      & info [ "sp90b" ] ~doc:"Run the SP 800-90B min-entropy estimators on the output.")
  in
  Cmd.v (Cmd.info "trng" ~doc)
    (instrument "trng"
       Term.(
         const (fun seed bits divisor xor ais31 nist sp90b () ->
             run_trng seed bits divisor xor ais31 nist sp90b)
         $ seed_arg $ bits_arg $ divisor_arg $ xor_arg $ ais31_arg $ nist_arg
         $ sp90b_arg))

let assess_cmd =
  let doc = "Generate bits with the simulated eRO-TRNG and run every battery." in
  let bits_arg =
    Arg.(value & opt int 30000 & info [ "bits" ] ~docv:"N" ~doc:"Bits to assess.")
  in
  let divisor_arg =
    Arg.(
      value & opt int 1000
      & info [ "divisor" ] ~docv:"K" ~doc:"Osc2 cycles between samples.")
  in
  Cmd.v (Cmd.info "assess" ~doc)
    (instrument "assess"
       Term.(
         const (fun seed bits divisor () -> run_assess seed bits divisor)
         $ seed_arg $ bits_arg $ divisor_arg))

let allan_cmd =
  let doc = "Allan deviation of the simulated relative frequency, with the crossover." in
  Cmd.v (Cmd.info "allan" ~doc)
    (instrument "allan"
       Term.(const (fun seed p () -> run_allan seed p) $ seed_arg $ log2_periods_arg))

let design_cmd =
  let doc = "Size the sampler divisor for a target entropy per bit." in
  let target_arg =
    Arg.(
      value & opt float 0.997
      & info [ "target" ] ~docv:"H" ~doc:"Entropy target in (0,1), default AIS31 PTG.2.")
  in
  Cmd.v (Cmd.info "design" ~doc)
    (instrument "design" Term.(const (fun target () -> run_design target) $ target_arg))

let monitor_cmd =
  let doc =
    "Run the simulator as a live source through the streaming health \
     observatory: sliding-window r_N, SP 800-90B / AIS31 health tests, EWMA \
     and CUSUM control charts, /metrics and /health endpoints.  Exits 0 when \
     the final verdict is ok, 1 degraded, 2 failing."
  in
  let duration_arg =
    let pp fmt d = Format.fprintf fmt "%gs" d in
    Arg.(
      value & opt (conv' (parse_duration, pp)) 5.0
      & info [ "duration" ] ~docv:"DUR"
          ~doc:"Wall-clock run length: 5s, 500ms, 2m or bare seconds.")
  in
  let periods_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "periods" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) simulated oscillator periods instead of \
             $(b,--duration) — deterministic for a fixed seed, so this is \
             what the smoke gate uses.")
  in
  let divisor_arg =
    Arg.(
      value & opt int 1000
      & info [ "divisor" ] ~docv:"K" ~doc:"Osc2 cycles between bit samples.")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "listen" ] ~docv:"PORT"
          ~doc:
            "Serve GET /metrics (Prometheus) and /health (JSON) on \
             127.0.0.1:$(docv) while running (0 = ephemeral, printed at \
             start).")
  in
  let refresh_arg =
    Arg.(
      value & opt float 0.5
      & info [ "refresh" ] ~docv:"S" ~doc:"Dashboard refresh period, seconds.")
  in
  let no_dashboard_arg =
    Arg.(
      value & flag
      & info [ "no-dashboard" ]
          ~doc:"Plain incremental output instead of the refreshing dashboard \
                (for logs and CI).")
  in
  Cmd.v (Cmd.info "monitor" ~doc)
    (instrument "monitor"
       Term.(
         const (fun seed duration periods attack strength divisor listen refresh
                    no_dash () ->
             run_monitor seed duration periods attack strength divisor listen
               refresh (not no_dash))
         $ seed_arg $ duration_arg $ periods_arg
         $ attack_arg Ptrng_trng.Attack.No_attack $ strength_arg
         $ divisor_arg $ listen_arg $ refresh_arg $ no_dashboard_arg))

let scenario_cmd =
  let doc =
    "Run named adversarial/environmental scenarios (time-varying noise and \
     frequency schedules plus fault injections) through the full pipeline and \
     score detection latency, false alarms, silent-lie margins and fail-safe \
     recovery.  Exits non-zero when an $(b,--expect-*) gate fails."
  in
  (* An unknown name is a usage error, not an exception out of the run. *)
  let scenario_conv =
    let parse n =
      match Ptrng_scenario.Registry.find n with
      | Some e -> Ok e
      | None -> Error (`Msg (Printf.sprintf "unknown scenario %S (try --list)" n))
    in
    let pp fmt (e : Ptrng_scenario.Registry.entry) =
      Format.pp_print_string fmt (Ptrng_device.Scenario.name e.scenario)
    in
    Arg.conv (parse, pp)
  in
  let names_arg =
    Arg.(
      value & pos_all scenario_conv []
      & info [] ~docv:"NAME" ~doc:"Scenario names to run (see $(b,--list)).")
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Run the whole scenario matrix.")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List the matrix and exit.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:
            "Write the deterministic ptrng-scenario/1 JSON report to $(docv) \
             (no wall-clock fields — byte-identical for a fixed seed under \
             any $(b,PTRNG_DOMAINS)).")
  in
  let expect_within_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "expect-detect-within" ] ~docv:"P"
          ~doc:"Fail unless every selected run detects its fault within \
                $(docv) periods of onset.")
  in
  let expect_recover_arg =
    Arg.(
      value & flag
      & info [ "expect-recover" ]
          ~doc:"Fail unless every selected run's verdict de-escalates back to \
                ok after the detection.")
  in
  let expect_lie_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "expect-lie-r-min" ] ~docv:"X"
          ~doc:"Fail unless the r_N silent-lie margin (stale static claim \
                minus live fit) reaches $(docv).")
  in
  let expect_clean_arg =
    Arg.(
      value & flag
      & info [ "expect-clean" ]
          ~doc:"Fail on any detection, false alarm or non-ok final verdict.")
  in
  let incidents_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "incidents-out" ] ~docv:"DIR"
          ~doc:
            "Write every frozen ptrng-incident/1 bundle to \
             $(docv)/<scenario>-<id>.json (replay them with $(b,repro \
             postmortem)).")
  in
  let expect_incidents_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "expect-incidents" ] ~docv:"N"
          ~doc:
            "Fail unless every selected run freezes exactly $(docv) flight-\
             recorder incidents.")
  in
  Cmd.v (Cmd.info "scenario" ~doc)
    (instrument "scenario"
       Term.(
         const (fun names all list seed json inc w rec_ lie clean exp_inc () ->
             run_scenario names all list seed json inc w rec_ lie clean exp_inc)
         $ names_arg $ all_arg $ list_arg $ seed_arg $ json_arg $ incidents_arg
         $ expect_within_arg $ expect_recover_arg $ expect_lie_arg
         $ expect_clean_arg $ expect_incidents_arg))

let postmortem_cmd =
  let doc =
    "Load a frozen ptrng-incident/1 flight-recorder bundle, render the \
     annotated incident timeline, and verify the deterministic replay \
     contract: fast-forward the recorded stream with Pair.skip and compare \
     the captured raw segment bit for bit, then re-run the whole pipeline \
     from the recorded seed and check the re-frozen bundle is byte-identical \
     (at any $(b,PTRNG_DOMAINS)).  Exits 1 on any mismatch."
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"INCIDENT"
          ~doc:
            "Incident bundle (JSON) to replay, as written by $(b,repro \
             scenario --incidents-out) or fetched from GET /incidents/<n>.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:
            "Write the ptrng-postmortem/1 verification report (JSON) to \
             $(docv).")
  in
  let no_color_arg =
    Arg.(
      value & flag
      & info [ "no-color" ] ~doc:"Disable ANSI colors in the timeline.")
  in
  Cmd.v (Cmd.info "postmortem" ~doc)
    (instrument "postmortem"
       Term.(
         const (fun file json nc () -> run_postmortem file json nc)
         $ file_arg $ json_arg $ no_color_arg))

let selftest_cmd =
  let doc = "Check eq. 11 against numeric integration of eq. 9." in
  Cmd.v (Cmd.info "selftest" ~doc)
    (instrument "selftest" Term.(const (fun () () -> run_selftest ()) $ const ()))

let main_cmd =
  let doc =
    "Reproduction of 'On the assumption of mutual independence of jitter \
     realizations in P-TRNG stochastic models' (DATE 2014)."
  in
  Cmd.group (Cmd.info "repro" ~version:"1.0.0" ~doc)
    [ fig7_cmd; extract_cmd; entropy_cmd; scaling_cmd; online_cmd; monitor_cmd;
      scenario_cmd; postmortem_cmd; trng_cmd; assess_cmd; allan_cmd; design_cmd;
      selftest_cmd ]

let () = exit (Cmd.eval' main_cmd)
