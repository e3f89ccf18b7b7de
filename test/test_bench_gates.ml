(* The section gate table of the bench report: every row accepts a
   valid section and rejects its own bad one, and required sections are
   enforced. *)

module Gates = Bench_gates.Gates
module Json = Ptrng_telemetry.Json

let row name =
  match
    List.find_opt (fun (r : Gates.row) -> r.Gates.section = name) Gates.rows
  with
  | Some r -> r
  | None -> Alcotest.failf "no gate row for %s" name

(* A report carrying every gated section, each one valid and carrying
   only the fields bench/main.ml writes. *)
let full_report =
  Json.of_string
    {|{"schema": "ptrng-bench/2", "sections": [
       {"name": "fig7", "wall_s": 1.0, "alloc_bytes": 1048576,
        "results": {"periods": 16384, "fit_a": 5.36e-6, "fit_b": 1e-9}},
       {"name": "extraction", "wall_s": 0.2,
        "results": {"b_th": 276.04, "sigma_th_ps": 15.89}},
       {"name": "noise_synth", "wall_s": 0.5,
        "results": {"domains": 2, "deterministic": true}},
       {"name": "variance_curve", "wall_s": 0.5,
        "results": {"domains": 2, "deterministic": true}},
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

(* [full_report] with each named section's fields replaced by those of
   its body, keeping its name and wall time. *)
let with_sections swaps =
  let swap s =
    match List.find_opt (fun (name, _) -> named name s) swaps with
    | None -> s
    | Some (name, body) ->
      let fields = match body with Json.Obj f -> f | _ -> [] in
      Json.Obj
        (("name", Json.String name) :: ("wall_s", Json.num 0.1) :: fields)
  in
  Json.Obj
    [
      ("schema", Json.String "ptrng-bench/2");
      ("sections", Json.List (List.map swap (sections full_report)));
    ]

let with_section name body = with_sections [ (name, body) ]

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
    Testkit.case "a dual-run section without deterministic fails" (fun () ->
        Testkit.check_true "missing deterministic rejected"
          (rejected_by ~fresh:false "noise_synth"
             (with_section "noise_synth"
                (Json.of_string {|{"results": {"domains": 2}}|}))));
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
    Testkit.case "legacy throughput and speedup fields are ignored" (fun () ->
        let legacy =
          with_sections
            (List.map
               (fun (name, body) -> (name, Json.of_string body))
               [
                 ( "fig7",
                   {|{"alloc_bytes": 1048576,
                      "throughput": {"periods_per_sec": 16384},
                      "results": {"periods": 16384, "fit_a": 5.36e-6,
                                  "fit_b": 1e-9}}|} );
                 ( "noise_synth",
                   {|{"results": {"domains": 1, "wall_1_s": 0.25,
                      "wall_par_s": 0.25, "speedup": 1.0,
                      "deterministic": true}}|} );
                 ( "variance_curve",
                   {|{"results": {"domains": 1, "wall_1_s": 0.25,
                      "wall_par_s": 0.25, "speedup": 1.0,
                      "deterministic": true}}|} );
               ])
        in
        List.iter
          (fun fresh ->
            match Gates.check ~fresh legacy with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e)
          [ true; false ]);
    Testkit.case "a dual-run section needs domains >= 1" (fun () ->
        Testkit.check_true "one domain passes"
          (Result.is_ok
             (Gates.check ~fresh:true
                (with_section "variance_curve"
                   (Json.of_string
                      {|{"results": {"domains": 1, "deterministic": true}}|}))));
        List.iter
          (fun body ->
            Testkit.check_true
              (Printf.sprintf "%s rejected" body)
              (rejected_by ~fresh:false "variance_curve"
                 (with_section "variance_curve" (Json.of_string body))))
          [
            {|{"results": {"domains": 0, "deterministic": true}}|};
            {|{"results": {"deterministic": true}}|};
          ]);
    Testkit.case "a non-boolean deterministic fails" (fun () ->
        Testkit.check_true "string \"true\" rejected"
          (rejected_by ~fresh:false "noise_synth"
             (with_section "noise_synth"
                (Json.of_string
                   {|{"results": {"domains": 2, "deterministic": "true"}}|}))));
    Testkit.case "fig7 needs fit_a, fit_b and periods" (fun () ->
        let all = [ ("periods", "16384"); ("fit_a", "5.36e-6"); ("fit_b", "1e-9") ] in
        List.iter
          (fun (dropped, _) ->
            let body =
              Printf.sprintf {|{"alloc_bytes": 1048576, "results": {%s}}|}
                (String.concat ", "
                   (List.filter_map
                      (fun (k, v) ->
                        if k = dropped then None
                        else Some (Printf.sprintf "%S: %s" k v))
                      all))
            in
            match
              Gates.check ~fresh:false (with_section "fig7" (Json.of_string body))
            with
            | Ok _ -> Alcotest.failf "fig7 without %s accepted" dropped
            | Error e ->
              Testkit.check_true
                (Printf.sprintf "%S names results.%s" e dropped)
                (Testkit.contains ~needle:("results." ^ dropped) e))
          all);
    Testkit.case "fig7 periods must be positive" (fun () ->
        Testkit.check_true "zero periods rejected"
          (rejected_by ~fresh:false "fig7"
             (with_section "fig7"
                (Json.of_string
                   {|{"alloc_bytes": 0,
                      "results": {"periods": 0, "fit_a": 5.36e-6,
                                  "fit_b": 1e-9}}|}))));
    Testkit.case "a fresh fig7 must record alloc_bytes" (fun () ->
        let report =
          with_section "fig7"
            (Json.of_string
               {|{"results": {"periods": 16384, "fit_a": 5.36e-6,
                              "fit_b": 1e-9}}|})
        in
        Testkit.check_true "snapshot without alloc_bytes passes"
          (Result.is_ok (Gates.check ~fresh:false report));
        Testkit.check_true "fresh report without alloc_bytes rejected"
          (rejected_by ~fresh:true "fig7" report));
    Testkit.case "the fig7 budget admits exactly its bound" (fun () ->
        let periods = 16384.0 in
        let at bytes_per_period =
          with_section "fig7"
            (Json.Obj
               [
                 ("alloc_bytes", Json.num (bytes_per_period *. periods));
                 ( "results",
                   Json.Obj
                     [
                       ("periods", Json.num periods);
                       ("fit_a", Json.num 5.36e-6);
                       ("fit_b", Json.num 1e-9);
                     ] );
               ])
        in
        let budget = 165.0 in
        Testkit.check_true "at the budget passes"
          (Result.is_ok (Gates.check ~fresh:true (at budget)));
        Testkit.check_true "one byte over is rejected"
          (rejected_by ~fresh:true "fig7" (at (budget +. 1.0))));
    Testkit.case "a report without a sections list fails" (fun () ->
        List.iter
          (fun (what, report) ->
            Testkit.check_true what
              (Result.is_error (Gates.check ~fresh:false report)))
          [
            ("no sections field", Json.Obj [ ("schema", Json.String "ptrng-bench/2") ]);
            ( "empty sections",
              Json.Obj
                [
                  ("schema", Json.String "ptrng-bench/2");
                  ("sections", Json.List []);
                ] );
            ( "sections not a list",
              Json.Obj
                [
                  ("schema", Json.String "ptrng-bench/2");
                  ("sections", Json.String "fig7");
                ] );
          ]);
    Testkit.case "a negative section wall time fails" (fun () ->
        let report =
          Json.Obj
            [
              ("schema", Json.String "ptrng-bench/2");
              ( "sections",
                Json.List
                  (List.map
                     (fun s ->
                       match s with
                       | Json.Obj f when named "extraction" s ->
                         Json.Obj
                           (List.map
                              (fun (k, v) ->
                                if k = "wall_s" then (k, Json.num (-1.0))
                                else (k, v))
                              f)
                       | s -> s)
                     (sections full_report)) );
            ]
        in
        match Gates.check ~fresh:false report with
        | Ok _ -> Alcotest.fail "negative wall time accepted"
        | Error e ->
          Testkit.check_true "wall time named"
            (Testkit.contains ~needle:"wall time" e));
    Testkit.case "a fresh report names every missing section at once"
      (fun () ->
        let always_only =
          Json.Obj
            [
              ("schema", Json.String "ptrng-bench/2");
              ( "sections",
                Json.List
                  (List.filter
                     (fun s ->
                       List.exists
                         (fun (r : Gates.row) ->
                           r.Gates.required = Gates.Always
                           && named r.Gates.section s)
                         Gates.rows)
                     (sections full_report)) );
            ]
        in
        Testkit.check_true "snapshot-shaped report passes without fresh"
          (Result.is_ok (Gates.check ~fresh:false always_only));
        match Gates.check ~fresh:true always_only with
        | Ok _ -> Alcotest.fail "fresh report without fresh-only rows accepted"
        | Error e ->
          Alcotest.(check string) "all four listed in table order"
            "section(s) missing: monitor, scenario, postmortem, lint" e);
    Testkit.case "a skipped lint run passes only without fresh" (fun () ->
        let skipped = Json.of_string {|{"results": {"skipped": true}}|} in
        let report = with_section "lint" skipped in
        Testkit.check_true "snapshot may skip"
          (Result.is_ok (Gates.check ~fresh:false report));
        Testkit.check_true "fresh report may not"
          (rejected_by ~fresh:true "lint" report));
  ]

let () =
  Alcotest.run "bench_gates" [ ("gates", gate_tests) ]
