(* Gate for the bench harness and its perf trajectory.

     check_bench [REPORT] [--fresh] [--history FILE] [--baseline FILE]
                 [--max-regression PCT] [--warn-only]

   Always: parse REPORT (default BENCH_1.json), assert the report-level
   fields the perf-trajectory tooling relies on and run every section
   gate of Bench_history.Gates, so `dune runtest` fails loudly if the
   report ever stops being produced or loses its schema.  A section
   that is present is always gated.

   --fresh               REPORT comes from a bench run of this checkout,
                         not a committed snapshot: every gated section
                         is required, a skipped lint section fails, and
                         fig7 must stay within 165 allocated bytes per
                         simulated period.
   --history FILE        also validate a bench-history JSONL file
                         (schema ptrng-bench-history/1, >= 1 record).
   --baseline FILE       also compare REPORT's sections against FILE (a
                         bench report or a history record); exit 1 if
                         any section's wall time regressed by more than
                         --max-regression PCT (default 25), or if any
                         section allocates more than 25% beyond the
                         baseline (allocation is deterministic, so the
                         tolerance needs no noise margin).
   --warn-only           print regressions but exit 0 (soft gate for
                         noisy 1-core CI runners).

   See docs/OBSERVABILITY.md, docs/PROFILING.md and docs/STREAMING.md. *)

module Json = Ptrng_telemetry.Json
module History = Bench_history.History
module Gates = Bench_history.Gates

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("check_bench: " ^ m); exit 1) fmt

let get path j key =
  match Json.member key j with
  | Some v -> v
  | None -> fail "missing field %s.%s" path key

let number path j key =
  match Json.to_float (get path j key) with
  | Some v -> v
  | None -> fail "field %s.%s is not numeric" path key

let max_alloc_regression_pct = 25.0

(* ---------------- argument parsing ---------------- *)

type opts = {
  report : string;
  history : string option;
  baseline : string option;
  max_regression_pct : float;
  fresh : bool;
  warn_only : bool;
}

let parse_args () =
  let opts =
    ref
      {
        report = "BENCH_1.json";
        history = None;
        baseline = None;
        max_regression_pct = 25.0;
        fresh = false;
        warn_only = false;
      }
  in
  let rec go = function
    | [] -> ()
    | "--history" :: path :: rest ->
      opts := { !opts with history = Some path };
      go rest
    | "--baseline" :: path :: rest ->
      opts := { !opts with baseline = Some path };
      go rest
    | "--max-regression" :: pct :: rest ->
      (match float_of_string_opt pct with
      | Some p when p >= 0.0 -> opts := { !opts with max_regression_pct = p }
      | _ -> fail "--max-regression expects a non-negative number, got %S" pct);
      go rest
    | "--fresh" :: rest ->
      opts := { !opts with fresh = true };
      go rest
    | "--warn-only" :: rest ->
      opts := { !opts with warn_only = true };
      go rest
    | ("--history" | "--baseline" | "--max-regression") :: [] ->
      fail "missing argument for the last flag"
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
      fail "unknown flag %s" arg
    | path :: rest ->
      opts := { !opts with report = path };
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  !opts

let read_json path =
  let contents =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e -> fail "cannot read %s: %s" path e
  in
  try Json.of_string contents with Failure e -> fail "%s does not parse: %s" path e

(* ---------------- report validation ---------------- *)

let validate_report ~fresh path report =
  (match Json.member "schema" report with
  | Some (Json.String "ptrng-bench/2") -> ()
  | _ -> fail "bad or missing schema tag");
  ignore (number "report" report "total_s");
  let domains = number "report" report "domains" in
  if not (domains >= 1.0) then fail "domains must be >= 1";
  (* The telemetry snapshot must show the accumulation actually ran. *)
  let metrics = get "report" report "metrics" in
  let periods = number "metrics" metrics "ptrng_measure_periods_accumulated_total" in
  if not (periods > 0.0) then fail "ptrng_measure_periods_accumulated_total is zero";
  match Gates.check ~fresh report with
  | Error e -> fail "%s: %s" path e
  | Ok lines ->
    List.iter (Printf.printf "check_bench: %s %s\n" path) lines;
    Printf.printf "check_bench: %s ok%s\n" path
      (if fresh then " (fresh report)" else "")

(* ---------------- history validation ---------------- *)

let validate_history path =
  match History.load ~path with
  | Error e -> fail "history %s: %s" path e
  | Ok [] -> fail "history %s has no records" path
  | Ok records ->
    List.iteri
      (fun i r ->
        match History.validate_record r with
        | Ok () -> ()
        | Error e -> fail "history %s record %d: %s" path (i + 1) e)
      records;
    Printf.printf "check_bench: %s ok (%d history records)\n" path
      (List.length records)

(* ---------------- regression gate ---------------- *)

let check_alloc_baseline ~warn_only ~baseline_path ~baseline ~report =
  match History.compare_alloc ~baseline ~current:report () with
  | Error e -> fail "cannot compare allocation against %s: %s" baseline_path e
  | Ok [] ->
    (* Old history records lack alloc_bytes; a silent pass would make
       the gate a no-op, so say the comparison was empty. *)
    Printf.printf
      "check_bench: no sections with alloc_bytes on both sides of %s\n"
      baseline_path
  | Ok compared ->
    List.iter
      (fun (c : History.alloc_comparison) ->
        Printf.printf "check_bench:   %-16s %11.0f B -> %11.0f B  (%+.1f%%)\n"
          c.History.section c.History.base_alloc_bytes c.History.alloc_bytes
          c.History.alloc_change_pct)
      compared;
    let regressed =
      History.alloc_regressions ~max_alloc_regression_pct compared
    in
    if regressed = [] then
      Printf.printf
        "check_bench: no allocation regression beyond %.0f%% against %s (%d \
         sections)\n"
        max_alloc_regression_pct baseline_path (List.length compared)
    else begin
      List.iter
        (fun (c : History.alloc_comparison) ->
          Printf.eprintf
            "check_bench: %s: section %s allocates %.1f%% more (%.0f B -> \
             %.0f B, tolerance %.0f%%)\n"
            (if warn_only then "warning" else "FAIL")
            c.History.section c.History.alloc_change_pct
            c.History.base_alloc_bytes c.History.alloc_bytes
            max_alloc_regression_pct)
        regressed;
      if not warn_only then exit 1
    end

let check_baseline ~warn_only ~max_regression_pct ~baseline_path ~baseline
    ~report =
  match History.compare_sections ~baseline ~current:report () with
  | Error e -> fail "cannot compare against %s: %s" baseline_path e
  | Ok [] -> fail "no comparable sections against %s" baseline_path
  | Ok compared ->
    List.iter
      (fun (c : History.comparison) ->
        Printf.printf "check_bench:   %-16s %9.3f s -> %9.3f s  (%+.1f%%)\n"
          c.History.section c.History.base_wall_s c.History.wall_s
          c.History.change_pct)
      compared;
    let regressed = History.regressions ~max_regression_pct compared in
    if regressed = [] then
      Printf.printf
        "check_bench: no regression beyond %.0f%% against %s (%d sections)\n"
        max_regression_pct baseline_path (List.length compared)
    else begin
      List.iter
        (fun (c : History.comparison) ->
          Printf.eprintf
            "check_bench: %s: section %s regressed %.1f%% (%.3f s -> %.3f s, \
             tolerance %.0f%%)\n"
            (if warn_only then "warning" else "FAIL")
            c.History.section c.History.change_pct c.History.base_wall_s
            c.History.wall_s max_regression_pct)
        regressed;
      if not warn_only then exit 1
    end

let () =
  let opts = parse_args () in
  let report = read_json opts.report in
  validate_report ~fresh:opts.fresh opts.report report;
  Option.iter validate_history opts.history;
  match opts.baseline with
  | None -> ()
  | Some baseline_path ->
    let baseline = read_json baseline_path in
    check_baseline ~warn_only:opts.warn_only
      ~max_regression_pct:opts.max_regression_pct ~baseline_path ~baseline
      ~report;
    check_alloc_baseline ~warn_only:opts.warn_only ~baseline_path ~baseline
      ~report
