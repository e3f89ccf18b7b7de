(* Gate for the bench report.

     check_bench [REPORT] [--fresh]

   Parse REPORT (default BENCH_1.json), assert the report-level fields
   and run every section gate of Bench_gates.Gates, so `dune runtest`
   fails loudly if the report ever stops being produced or loses its
   schema.  A section that is present is always gated; fields the gates
   do not read (the timing fields of older snapshots) are ignored.

   --fresh   REPORT comes from a bench run of this checkout, not a
             committed snapshot: every gated section is required, a
             skipped lint section fails, and fig7 must stay within 165
             allocated bytes per simulated period.

   Performance is gated by the declared benchmark, bench_e2e/run.py,
   not here.  See docs/OBSERVABILITY.md and docs/PROFILING.md. *)

module Json = Ptrng_telemetry.Json
module Gates = Bench_gates.Gates

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("check_bench: " ^ m); exit 1) fmt

let get path j key =
  match Json.member key j with
  | Some v -> v
  | None -> fail "missing field %s.%s" path key

let number path j key =
  match Json.to_float (get path j key) with
  | Some v -> v
  | None -> fail "field %s.%s is not numeric" path key

(* ---------------- argument parsing ---------------- *)

let parse_args () =
  let report = ref "BENCH_1.json" and fresh = ref false in
  List.iter
    (function
      | "--fresh" -> fresh := true
      | arg when String.starts_with ~prefix:"--" arg -> fail "unknown flag %s" arg
      | path -> report := path)
    (List.tl (Array.to_list Sys.argv));
  (!report, !fresh)

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

let () =
  let path, fresh = parse_args () in
  validate_report ~fresh path (read_json path)
