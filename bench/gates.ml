(* Section gates of a ptrng-bench/2 report, one row per gated section.

   A row names its section, says whether every report must carry it or
   only a fresh one (the committed snapshots predate the later
   sections), gives the gate over the section object, and carries a
   section the gate must reject, so the reject direction of every gate
   is tested from the table itself.  A section that is present is
   always gated, required or not.  See docs/PROFILING.md. *)

module Json = Ptrng_telemetry.Json

type requirement = Always | Fresh_only

type row = {
  section : string;
  required : requirement;
  gate : fresh:bool -> Json.t -> string;
  bad : Json.t;
}

exception Reject of string

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

(* [ctx] is the path prefix of [key] inside the section, for messages. *)
let get ctx j key =
  match Json.member key j with
  | Some v -> v
  | None -> reject "missing field %s%s" ctx key

let number ctx j key =
  match Json.to_float (get ctx j key) with
  | Some v -> v
  | None -> reject "field %s%s is not numeric" ctx key

let results s = get "" s "results"

(* fig7 drives Multilevel.characterize over the whole simulated trace,
   so its alloc_bytes per simulated period is the figure of merit for
   the streaming pipeline: a budget of a few machine words per period
   proves the hot path reuses its buffers instead of materializing
   traces.  Only fresh reports are budgeted: a committed snapshot never
   changes, so budgeting it cannot catch a regression. *)
let fig7_bytes_per_period_budget = 165.0

let fig7 ~fresh s =
  let r = results s in
  let a = number "results." r "fit_a" in
  let b = number "results." r "fit_b" in
  let periods = number "results." r "periods" in
  if not (periods > 0.0) then reject "results.periods not positive";
  if not fresh then Printf.sprintf "a %.3e, b %.3e over %.0f periods" a b periods
  else begin
    let alloc = number "" s "alloc_bytes" in
    let per_period = alloc /. periods in
    if per_period > fig7_bytes_per_period_budget then
      reject
        "allocates %.1f bytes/period (%.3e bytes over %.0f periods), budget \
         is %.0f — the hot path is allocating again"
        per_period alloc periods fig7_bytes_per_period_budget;
    Printf.sprintf "a %.3e, b %.3e, %.1f bytes/period (budget %.0f)" a b
      per_period fig7_bytes_per_period_budget
  end

let extraction ~fresh:_ s =
  let r = results s in
  Printf.sprintf "b_th %.2f, sigma_th %.2f ps"
    (number "results." r "b_th")
    (number "results." r "sigma_th_ps")

(* Parallel sections prove the output did not depend on the domain
   count.  Committed snapshots also carry legacy timing fields, which
   are ignored. *)
let dual_run ~fresh:_ s =
  let r = results s in
  let domains = number "results." r "domains" in
  if not (domains >= 1.0) then reject "results.domains must be >= 1";
  match Json.member "deterministic" r with
  | Some (Json.Bool true) ->
    Printf.sprintf "deterministic, 1 vs %.0f domains" domains
  | Some (Json.Bool false) -> reject "output depends on the domain count"
  | _ -> reject "missing field results.deterministic"

(* The monitor section feeds a calm coin's jitter and bits through
   Monitor: any verdict but ok is a false alarm of the health stack. *)
let monitor ~fresh:_ s =
  let r = results s in
  let samples = number "results." r "jitter_samples" in
  if not (samples >= 1.0) then reject "results.jitter_samples must be >= 1";
  let bits = number "results." r "bits" in
  if not (bits >= 1.0) then reject "results.bits must be >= 1";
  List.iter
    (fun key ->
      let v = number "results." r key in
      if not (Float.is_finite v && v >= 0.0) then
        reject "results.%s = %g is not a finite non-negative cost" key v)
    [
      "ns_per_jitter_sample";
      "words_per_jitter_sample";
      "ns_per_chunk_sample";
      "words_per_chunk_sample";
      "ns_per_bit";
      "words_per_bit";
    ];
  match get "results." r "verdict" with
  | Json.String "ok" ->
    Printf.sprintf "verdict ok, %.0f samples, %.0f bits" samples bits
  | Json.String v ->
    reject "calm feed ended %S — the health stack raised a false alarm" v
  | _ -> reject "field results.verdict is not a string"

(* The scenario section runs fault schedules through the monitor and
   scores detection: a fault nothing detected, or a pre-onset false
   alarm, means the detection stack regressed.  All counts are
   deterministic (fixed seed), so the gate is exact. *)
let scenario ~fresh:_ s =
  let r = results s in
  let scenarios = number "results." r "scenarios" in
  if not (scenarios >= 1.0) then reject "results.scenarios must be >= 1";
  if not (number "results." r "periods" > 0.0) then
    reject "results.periods not positive";
  let detected = number "results." r "detected" in
  if not (detected >= 1.0) then
    reject "no scenario detected its fault — the detection stack regressed";
  if detected > scenarios then reject "results.detected exceeds scenarios";
  let recovered = number "results." r "recovered" in
  if recovered < 0.0 || recovered > detected then
    reject "results.recovered out of range";
  let false_alarms = number "results." r "false_alarms" in
  if false_alarms <> 0.0 then
    reject "scenario runs raised %.0f pre-onset false alarms" false_alarms;
  if not (number "results." r "max_latency_windows" >= 0.0) then
    reject "results.max_latency_windows negative";
  Printf.sprintf "%.0f scenarios, %.0f detected, %.0f recovered" scenarios
    detected recovered

(* The postmortem section measures the flight recorder's capture cost as
   a delta against a bare monitor over the same calm feed.  The
   recorder's contract is zero allocation per sample, so the budget is a
   hair above zero: enough for GC noise, tight enough that a boxing
   regression on the capture path fails.  The bound is two-sided: a
   large negative delta means the measurement itself broke.  A calm
   feed that freezes incidents means the trigger wiring regressed. *)
let postmortem_overhead_budget = 0.2

let postmortem ~fresh:_ s =
  let r = results s in
  if not (number "results." r "jitter_samples" >= 1.0) then
    reject "results.jitter_samples must be >= 1";
  if not (number "results." r "bits" >= 1.0) then
    reject "results.bits must be >= 1";
  let overhead key unit =
    let v = number "results." r key in
    if Float.abs v > postmortem_overhead_budget then
      reject
        "flight-recorder capture costs %.3f words/%s (budget ±%.1f) — the \
         zero-allocation capture path regressed"
        v unit postmortem_overhead_budget;
    v
  in
  let jitter = overhead "jitter_overhead_words_per_sample" "sample" in
  let bit = overhead "bit_overhead_words_per_bit" "bit" in
  let incidents = number "results." r "incidents" in
  if incidents <> 0.0 then
    reject "calm bench feed froze %.0f incidents — the trigger wiring regressed"
      incidents;
  Printf.sprintf "%+.3f words/sample, %+.3f words/bit, 0 incidents" jitter bit

(* The lint section is the static analyzer run as a measured workload:
   unbaselined errors mean the analyzed tree was dirty when the bench
   ran.  A run without .cmt artifacts records skipped=true, which only
   a committed snapshot may do. *)
let lint ~fresh s =
  let r = results s in
  if Json.member "skipped" r = Some (Json.Bool true) then
    if fresh then reject "skipped (no .cmt artifacts) in a fresh report"
    else "skipped (no artifacts)"
  else begin
    let units = number "results." r "units" in
    if not (units >= 1.0) then reject "results.units must be >= 1";
    if not (number "results." r "rules" >= 1.0) then
      reject "results.rules must be >= 1";
    let errors = number "results." r "errors" in
    if errors <> 0.0 then
      reject "%.0f unbaselined error(s) — the tree is dirty" errors;
    let warnings = number "results." r "warnings" in
    if warnings < 0.0 then reject "results.warnings negative";
    let baselined = number "results." r "baselined" in
    if baselined < 0.0 then reject "results.baselined negative";
    Printf.sprintf "%.0f units, 0 errors, %.0f warnings, %.0f baselined" units
      warnings baselined
  end

let dual_run_bad = {|{"results": {"domains": 2, "deterministic": false}}|}

let rows =
  List.map
    (fun (section, required, gate, bad) ->
      { section; required; gate; bad = Json.of_string bad })
    [
      ( "fig7",
        Always,
        fig7,
        {|{"alloc_bytes": 1048576000,
           "results": {"periods": 16384, "fit_a": 5.36e-6, "fit_b": 1e-9}}|} );
      ("extraction", Always, extraction, {|{"results": {"b_th": 276.04}}|});
      ("noise_synth", Always, dual_run, dual_run_bad);
      ("variance_curve", Always, dual_run, dual_run_bad);
      ( "monitor",
        Fresh_only,
        monitor,
        {|{"results": {"jitter_samples": 65536, "bits": 8192,
           "ns_per_jitter_sample": 40, "words_per_jitter_sample": 0,
           "ns_per_chunk_sample": 20, "words_per_chunk_sample": 0,
           "ns_per_bit": 10, "words_per_bit": 0, "verdict": "failing"}}|} );
      ( "scenario",
        Fresh_only,
        scenario,
        {|{"results": {"periods": 2097152, "scenarios": 2, "detected": 0,
           "recovered": 0, "false_alarms": 0, "max_latency_windows": 0}}|} );
      ( "postmortem",
        Fresh_only,
        postmortem,
        {|{"results": {"jitter_samples": 65536, "bits": 8192,
           "jitter_overhead_words_per_sample": 5.0,
           "bit_overhead_words_per_bit": 0.0, "incidents": 0}}|} );
      ( "lint",
        Fresh_only,
        lint,
        {|{"results": {"units": 122, "errors": 3, "warnings": 1, "info": 0,
           "baselined": 34, "rules": 8}}|} );
    ]

let check ~fresh report =
  try
    let sections =
      match Json.member "sections" report with
      | Some (Json.List (_ :: _ as l)) -> l
      | Some (Json.List []) -> reject "no sections recorded"
      | _ -> reject "sections is not a list"
    in
    List.iter
      (fun s ->
        if not (number "section." s "wall_s" >= 0.0) then
          reject "negative section wall time")
      sections;
    let find row =
      List.find_opt
        (fun s -> Json.member "name" s = Some (Json.String row.section))
        sections
    in
    (match
       List.filter
         (fun row -> (fresh || row.required = Always) && find row = None)
         rows
     with
    | [] -> ()
    | missing ->
      reject "section(s) missing: %s"
        (String.concat ", " (List.map (fun row -> row.section) missing)));
    Ok
      (List.map
         (fun row ->
           match find row with
           | None -> row.section ^ " absent (required only with --fresh)"
           | Some s -> (
             match row.gate ~fresh s with
             | summary -> Printf.sprintf "%s ok: %s" row.section summary
             | exception Reject m -> reject "section %s: %s" row.section m))
         rows)
  with Reject m -> Error m
