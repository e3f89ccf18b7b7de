(* Bench-history records: schema validation, JSONL persistence, the
   regression comparison used by check_bench --baseline, and the reject
   direction of every section gate in Bench_history.Gates. *)

module History = Bench_history.History
module Gates = Bench_history.Gates
module Json = Ptrng_telemetry.Json

let report ~sha ~scale =
  Json.Obj
    [
      ("schema", Json.String "ptrng-bench/2");
      ("mode", Json.String "smoke");
      ("sha", Json.String sha);
      ("domains", Json.Int 2);
      ("total_s", Json.num (scale *. 3.0));
      ( "sections",
        Json.List
          (List.map
             (fun (name, wall_s) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("wall_s", Json.num (scale *. wall_s));
                 ])
             [ ("fig7", 1.0); ("extraction", 0.5); ("tiny", 0.001) ]) );
    ]

let record_tests =
  [
    Testkit.case "record_of_report produces a valid history record" (fun () ->
        let r =
          match
            History.record_of_report ~sha:"abc123" ~time_unix:1e9
              (report ~sha:"abc123" ~scale:1.0)
          with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        (match History.validate_record r with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        (match Json.member "schema" r with
        | Some (Json.String s) ->
          Alcotest.(check string) "schema" History.schema s
        | _ -> Alcotest.fail "no schema");
        match History.sections_of r with
        | Ok s -> Alcotest.(check int) "sections carried over" 3 (List.length s)
        | Error e -> Alcotest.fail e);
    Testkit.case "lint summary is carried when given, absent otherwise"
      (fun () ->
        let with_lint =
          match
            History.record_of_report ~sha:"abc" ~time_unix:1e9
              ~lint:"ptrng-lint: 0 errors" (report ~sha:"abc" ~scale:1.0)
          with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        (match History.validate_record with_lint with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        (match Json.member "lint" with_lint with
        | Some (Json.String s) ->
          Alcotest.(check string) "lint field" "ptrng-lint: 0 errors" s
        | _ -> Alcotest.fail "lint field missing");
        let without =
          match
            History.record_of_report ~sha:"abc" ~time_unix:1e9
              (report ~sha:"abc" ~scale:1.0)
          with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        Testkit.check_true "no lint field by default"
          (Json.member "lint" without = None));
    Testkit.case "validate_record rejects wrong schema and missing fields"
      (fun () ->
        Testkit.check_true "wrong schema rejected"
          (Result.is_error
             (History.validate_record
                (Json.Obj [ ("schema", Json.String "something-else/9") ])));
        Testkit.check_true "bare report rejected"
          (Result.is_error (History.validate_record (report ~sha:"x" ~scale:1.0))));
  ]

let persistence_tests =
  [
    Testkit.case "append then load round-trips, oldest first" (fun () ->
        let path = Filename.temp_file "ptrng_hist" ".jsonl" in
        Sys.remove path;
        let add sha =
          match
            History.record_of_report ~sha ~time_unix:1e9 (report ~sha ~scale:1.0)
          with
          | Ok r -> (
            match History.append ~path r with
            | Ok () -> ()
            | Error e -> Alcotest.fail e)
          | Error e -> Alcotest.fail e
        in
        add "first";
        add "second";
        let records =
          match History.load ~path with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        Sys.remove path;
        Alcotest.(check int) "two records" 2 (List.length records);
        let shas =
          List.map
            (fun r ->
              match Json.member "sha" r with
              | Some (Json.String s) -> s
              | _ -> "?")
            records
        in
        Alcotest.(check (list string)) "order" [ "first"; "second" ] shas);
    Testkit.case "load reports a malformed line with its number" (fun () ->
        let path = Filename.temp_file "ptrng_hist" ".jsonl" in
        let oc = open_out path in
        output_string oc "{\"schema\":\"x\"}\nnot json at all\n";
        close_out oc;
        (match History.load ~path with
        | Error e -> Testkit.check_true "line number named" (Testkit.contains ~needle:"line 2" e)
        | Ok _ -> Alcotest.fail "malformed history accepted");
        Sys.remove path);
  ]

(* Like [report], with alloc_bytes on the two real sections scaled by
   [alloc_scale]; "tiny" stays below default_min_alloc_bytes. *)
let report_alloc ~sha ~alloc_scale =
  Json.Obj
    [
      ("schema", Json.String "ptrng-bench/2");
      ("mode", Json.String "smoke");
      ("sha", Json.String sha);
      ("domains", Json.Int 2);
      ("total_s", Json.num 3.0);
      ( "sections",
        Json.List
          (List.map
             (fun (name, wall_s, alloc) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("wall_s", Json.num wall_s);
                   ("alloc_bytes", Json.num (alloc_scale *. alloc));
                 ])
             [
               ("fig7", 1.0, 4.0e7);
               ("extraction", 0.5, 1.0e6);
               ("tiny", 0.001, 1024.0);
             ]) );
    ]

let alloc_comparison_tests =
  [
    Testkit.case "records without alloc_bytes are skipped, not regressions"
      (fun () ->
        (* Pre-PR 6 baselines carry no alloc_bytes: the comparison must
           come back empty rather than failing or inventing changes. *)
        let base = report ~sha:"a" ~scale:1.0 in
        match History.compare_alloc ~baseline:base ~current:base () with
        | Ok c -> Alcotest.(check int) "nothing comparable" 0 (List.length c)
        | Error e -> Alcotest.fail e);
    Testkit.case "identical allocation shows exactly zero change" (fun () ->
        let base = report_alloc ~sha:"a" ~alloc_scale:1.0 in
        let compared =
          match History.compare_alloc ~baseline:base ~current:base () with
          | Ok c -> c
          | Error e -> Alcotest.fail e
        in
        (* "tiny" sits below default_min_alloc_bytes and is skipped. *)
        Alcotest.(check int) "comparable sections" 2 (List.length compared);
        List.iter
          (fun (c : History.alloc_comparison) ->
            Testkit.check_abs ~tol:1e-12 "no change" 0.0
              c.History.alloc_change_pct)
          compared;
        Alcotest.(check int) "no regressions" 0
          (List.length
             (History.alloc_regressions ~max_alloc_regression_pct:25.0
                compared)));
    Testkit.case "an allocation blow-up is flagged, a reduction is not"
      (fun () ->
        let base = report_alloc ~sha:"a" ~alloc_scale:1.0 in
        let heavy = report_alloc ~sha:"b" ~alloc_scale:3.0 in
        let regs =
          match History.compare_alloc ~baseline:base ~current:heavy () with
          | Ok c ->
            History.alloc_regressions ~max_alloc_regression_pct:25.0 c
          | Error e -> Alcotest.fail e
        in
        Alcotest.(check int) "both real sections regress" 2 (List.length regs);
        List.iter
          (fun (c : History.alloc_comparison) ->
            Testkit.check_abs ~tol:1e-9 "+200%" 200.0
              c.History.alloc_change_pct)
          regs;
        let back =
          match History.compare_alloc ~baseline:heavy ~current:base () with
          | Ok c ->
            History.alloc_regressions ~max_alloc_regression_pct:25.0 c
          | Error e -> Alcotest.fail e
        in
        Alcotest.(check int) "a reduction is not a regression" 0
          (List.length back));
    Testkit.case "alloc_bytes survives the report -> history round trip"
      (fun () ->
        let r =
          match
            History.record_of_report ~sha:"abc" ~time_unix:1e9
              (report_alloc ~sha:"abc" ~alloc_scale:1.0)
          with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        match History.compare_alloc ~baseline:r
                ~current:(report_alloc ~sha:"abc" ~alloc_scale:1.0) ()
        with
        | Ok c -> Alcotest.(check int) "history record comparable" 2 (List.length c)
        | Error e -> Alcotest.fail e);
  ]

let comparison_tests =
  [
    Testkit.case "identical reports show no regression" (fun () ->
        let base = report ~sha:"a" ~scale:1.0 in
        let compared =
          match History.compare_sections ~baseline:base ~current:base () with
          | Ok c -> c
          | Error e -> Alcotest.fail e
        in
        (* The 1 ms section sits below default_min_wall_s and is skipped. *)
        Alcotest.(check int) "comparable sections" 2 (List.length compared);
        List.iter
          (fun (c : History.comparison) ->
            Testkit.check_abs ~tol:1e-12 "no change" 0.0 c.History.change_pct)
          compared;
        Alcotest.(check int) "no regressions" 0
          (List.length (History.regressions ~max_regression_pct:25.0 compared)));
    Testkit.case "a 2x slowdown is flagged, a speedup is not" (fun () ->
        let base = report ~sha:"a" ~scale:1.0 in
        let slow = report ~sha:"b" ~scale:2.0 in
        let compared =
          match History.compare_sections ~baseline:base ~current:slow () with
          | Ok c -> c
          | Error e -> Alcotest.fail e
        in
        let regs = History.regressions ~max_regression_pct:50.0 compared in
        Alcotest.(check int) "both real sections regress" 2 (List.length regs);
        List.iter
          (fun (c : History.comparison) ->
            Testkit.check_abs ~tol:1e-9 "+100%" 100.0 c.History.change_pct)
          regs;
        let back =
          match History.compare_sections ~baseline:slow ~current:base () with
          | Ok c -> History.regressions ~max_regression_pct:50.0 c
          | Error e -> Alcotest.fail e
        in
        Alcotest.(check int) "speedup is not a regression" 0 (List.length back));
    Testkit.case "min_wall_s filter is adjustable" (fun () ->
        let base = report ~sha:"a" ~scale:1.0 in
        match
          History.compare_sections ~min_wall_s:0.0 ~baseline:base ~current:base
            ()
        with
        | Ok c -> Alcotest.(check int) "tiny section included" 3 (List.length c)
        | Error e -> Alcotest.fail e);
  ]

let row name =
  match
    List.find_opt (fun (r : Gates.row) -> r.Gates.section = name) Gates.rows
  with
  | Some r -> r
  | None -> Alcotest.failf "no gate row for %s" name

(* A report carrying every gated section, each one valid. *)
let full_report =
  Json.of_string
    {|{"schema": "ptrng-bench/2", "sections": [
       {"name": "fig7", "wall_s": 1.0, "alloc_bytes": 1048576,
        "throughput": {"periods_per_sec": 16384},
        "results": {"periods": 16384, "fit_a": 5.36e-6, "fit_b": 1e-9}},
       {"name": "extraction", "wall_s": 0.2,
        "results": {"b_th": 276.04, "sigma_th_ps": 15.89}},
       {"name": "noise_synth", "wall_s": 0.5,
        "results": {"domains": 1, "wall_1_s": 0.25, "wall_par_s": 0.25,
                    "speedup": 1.0, "deterministic": true}},
       {"name": "variance_curve", "wall_s": 0.5,
        "results": {"domains": 1, "wall_1_s": 0.25, "wall_par_s": 0.25,
                    "speedup": 1.0, "deterministic": true}},
       {"name": "monitor", "wall_s": 0.1,
        "results": {"jitter_samples": 65536, "bits": 8192,
                    "ns_per_jitter_sample": 40, "words_per_jitter_sample": 0,
                    "ns_per_chunk_sample": 20, "words_per_chunk_sample": 0,
                    "ns_per_bit": 10, "words_per_bit": 0, "verdict": "ok"}},
       {"name": "scenario", "wall_s": 0.3,
        "results": {"periods": 2097152, "scenarios": 2, "detected": 1,
                    "recovered": 1, "false_alarms": 0,
                    "max_latency_windows": 3}},
       {"name": "postmortem", "wall_s": 0.1,
        "results": {"jitter_samples": 65536, "bits": 8192,
                    "jitter_overhead_words_per_sample": 0.0,
                    "bit_overhead_words_per_bit": 0.0, "incidents": 0}},
       {"name": "lint", "wall_s": 0.4,
        "results": {"units": 122, "errors": 0, "warnings": 0, "info": 0,
                    "baselined": 29, "rules": 8}}]}|}

let sections report =
  match Json.member "sections" report with
  | Some (Json.List l) -> l
  | _ -> Alcotest.fail "report without sections"

let named name s = Json.member "name" s = Some (Json.String name)

(* [full_report] with section [name] dropped. *)
let without name =
  Json.Obj
    [
      ("schema", Json.String "ptrng-bench/2");
      ( "sections",
        Json.List
          (List.filter (fun s -> not (named name s)) (sections full_report)) );
    ]

(* [full_report] with section [name]'s fields replaced by those of
   [body], keeping its name and wall time. *)
let with_section name body =
  let fields = match body with Json.Obj f -> f | _ -> [] in
  Json.Obj
    [
      ("schema", Json.String "ptrng-bench/2");
      ( "sections",
        Json.List
          (List.map
             (fun s ->
               if named name s then
                 Json.Obj
                   (("name", Json.String name)
                   :: ("wall_s", Json.num 0.1)
                   :: fields)
               else s)
             (sections full_report)) );
    ]

(* Runs [Gates.check] and, on rejection, requires the error to come
   from section [name]'s own gate. *)
let rejected_by ~fresh name report =
  match Gates.check ~fresh report with
  | Ok _ -> false
  | Error e ->
    let prefix = "section " ^ name ^ ": " in
    Testkit.check_true
      (Printf.sprintf "%S comes from the %s gate" e name)
      (String.starts_with ~prefix e);
    true

let postmortem ~jitter_overhead =
  Json.Obj
    [
      ( "results",
        Json.Obj
          [
            ("jitter_samples", Json.Int 65536);
            ("bits", Json.Int 8192);
            ("jitter_overhead_words_per_sample", Json.num jitter_overhead);
            ("bit_overhead_words_per_bit", Json.num 0.0);
            ("incidents", Json.Int 0);
          ] );
    ]

let gate_tests =
  [
    Testkit.case "the table gates the eight bench sections" (fun () ->
        Alcotest.(check (list (pair string bool)))
          "sections, required in every report"
          [
            ("fig7", true);
            ("extraction", true);
            ("noise_synth", true);
            ("variance_curve", true);
            ("monitor", false);
            ("scenario", false);
            ("postmortem", false);
            ("lint", false);
          ]
          (List.map
             (fun (r : Gates.row) ->
               (r.Gates.section, r.Gates.required = Gates.Always))
             Gates.rows));
    Testkit.case "a report with every section valid passes" (fun () ->
        List.iter
          (fun fresh ->
            match Gates.check ~fresh full_report with
            | Ok lines ->
              Alcotest.(check int) "one line per row" (List.length Gates.rows)
                (List.length lines)
            | Error e -> Alcotest.fail e)
          [ true; false ]);
    Testkit.case "every row's bad section fails the report, fresh or not"
      (fun () ->
        List.iter
          (fun (r : Gates.row) ->
            let report = with_section r.Gates.section r.Gates.bad in
            Testkit.check_true
              (r.Gates.section ^ " bad rejected under fresh")
              (rejected_by ~fresh:true r.Gates.section report);
            (* fig7's bad section is over budget, which only fresh gates. *)
            if r.Gates.section <> "fig7" then
              Testkit.check_true
                (r.Gates.section ^ " bad rejected without fresh")
                (rejected_by ~fresh:false r.Gates.section report))
          Gates.rows);
    Testkit.case "the fig7 allocation budget applies only to fresh reports"
      (fun () ->
        let report = with_section "fig7" (row "fig7").Gates.bad in
        Testkit.check_true "bad fig7 passes without fresh"
          (Result.is_ok (Gates.check ~fresh:false report));
        match Gates.check ~fresh:true report with
        | Error e ->
          Testkit.check_true "budget named"
            (Testkit.contains ~needle:"bytes/period" e)
        | Ok _ -> Alcotest.fail "fig7 allocation budget not applied");
    Testkit.case "the postmortem overhead bound is two-sided" (fun () ->
        Testkit.check_true "zero overhead passes"
          (Result.is_ok
             (Gates.check ~fresh:true
                (with_section "postmortem" (postmortem ~jitter_overhead:0.0))));
        List.iter
          (fun w ->
            Testkit.check_true
              (Printf.sprintf "%+.0f words/sample rejected" w)
              (rejected_by ~fresh:true "postmortem"
                 (with_section "postmortem" (postmortem ~jitter_overhead:w))))
          [ 5.0; -5.0 ]);
    Testkit.case "a missing section fails when required" (fun () ->
        List.iter
          (fun (r : Gates.row) ->
            let report = without r.Gates.section in
            (match Gates.check ~fresh:true report with
            | Ok _ ->
              Alcotest.failf "fresh report lacking %s accepted" r.Gates.section
            | Error e ->
              Testkit.check_true
                (Printf.sprintf "%s named missing in %S" r.Gates.section e)
                (Testkit.contains ~needle:("missing: " ^ r.Gates.section) e));
            Testkit.check_true
              (r.Gates.section ^ " required without fresh iff Always")
              (Result.is_error (Gates.check ~fresh:false report)
              = (r.Gates.required = Gates.Always)))
          Gates.rows);
    Testkit.case "a skipped lint run passes only without fresh" (fun () ->
        let skipped = Json.of_string {|{"results": {"skipped": true}}|} in
        let report = with_section "lint" skipped in
        Testkit.check_true "snapshot may skip"
          (Result.is_ok (Gates.check ~fresh:false report));
        Testkit.check_true "fresh report may not"
          (rejected_by ~fresh:true "lint" report));
  ]

let () =
  Alcotest.run "bench_history"
    [
      ("records", record_tests);
      ("persistence", persistence_tests);
      ("comparison", comparison_tests);
      ("alloc-comparison", alloc_comparison_tests);
      ("gates", gate_tests);
    ]
