open Ptrng_telemetry

(* The registry and span stack are process-global; give every test a
   clean slate so ordering never matters. *)
let fresh () =
  Registry.clear ();
  Registry.disable ();
  Span.reset ();
  Series.reset ();
  Runtime_profile.reset ()

let exact_quantile sorted q =
  let n = Array.length sorted in
  let idx = int_of_float (Float.round (q *. float_of_int (n - 1))) in
  sorted.(idx)

let histogram_tests =
  [
    Testkit.case "bucket bounds form the geometric grid" (fun () ->
        fresh ();
        let h = Histogram.create ~lo:1.0 ~hi:1000.0 ~buckets_per_decade:1 () in
        let bounds = Histogram.bucket_bounds h in
        Alcotest.(check int) "bound count" 4 (Array.length bounds);
        Array.iteri
          (fun i b -> Testkit.check_abs ~tol:1e-9 "bound" (10.0 ** float_of_int i) b)
          bounds);
    Testkit.case "observations land in the right buckets" (fun () ->
        fresh ();
        let h = Histogram.create ~lo:1.0 ~hi:1000.0 ~buckets_per_decade:1 () in
        List.iter (Histogram.observe h) [ 0.5; 1.0; 1.5; 10.0; 10.1; 5000.0; nan ];
        (* nan is dropped; 5000 overflows into the +inf bucket. *)
        Alcotest.(check int) "count" 6 (Histogram.count h);
        Alcotest.(check (array int)) "per-bucket"
          [| 2; 2; 1; 0; 1 |]
          (Histogram.bucket_counts h));
    Testkit.case "count/sum/mean/min/max are exact" (fun () ->
        fresh ();
        let h = Histogram.create ~lo:1e-3 ~hi:1e3 () in
        List.iter (Histogram.observe h) [ 3.0; 1.0; 2.0 ];
        Alcotest.(check int) "count" 3 (Histogram.count h);
        Testkit.check_abs ~tol:1e-12 "sum" 6.0 (Histogram.sum h);
        Testkit.check_abs ~tol:1e-12 "mean" 2.0 (Histogram.mean h);
        Testkit.check_abs ~tol:1e-12 "min" 1.0 (Histogram.min_value h);
        Testkit.check_abs ~tol:1e-12 "max" 3.0 (Histogram.max_value h));
    Testkit.case "quantiles match exact within one bucket ratio" (fun () ->
        fresh ();
        let bpd = 20 in
        let h = Histogram.create ~lo:1e-2 ~hi:1e4 ~buckets_per_decade:bpd () in
        let n = 2000 in
        (* Deterministic log-spaced sample spanning three decades. *)
        let values =
          Array.init n (fun i -> 10.0 ** (3.0 *. float_of_int i /. float_of_int (n - 1)))
        in
        Array.iter (Histogram.observe h) values;
        let sorted = Array.copy values in
        Array.sort compare sorted;
        let ratio = 10.0 ** (1.0 /. float_of_int bpd) in
        List.iter
          (fun q ->
            let est = Histogram.quantile h q in
            let exact = exact_quantile sorted q in
            Testkit.check_true
              (Printf.sprintf "q=%.2f est=%g exact=%g" q est exact)
              (est >= exact /. ratio && est <= exact *. ratio))
          [ 0.1; 0.5; 0.9; 0.99 ]);
    Testkit.case "quantile extremes return the exact min and max" (fun () ->
        fresh ();
        let h = Histogram.create ~lo:1.0 ~hi:1000.0 () in
        List.iter (Histogram.observe h) [ 3.7; 42.0; 512.5 ];
        (* Not bucket midpoints: q=0 and q=1 must be the observed extremes. *)
        Testkit.check_abs ~tol:0.0 "q=0 is min" 3.7 (Histogram.quantile h 0.0);
        Testkit.check_abs ~tol:0.0 "q=1 is max" 512.5 (Histogram.quantile h 1.0);
        Histogram.observe h 0.001;
        Histogram.observe h 123456.0;
        (* Even out-of-range observations (underflow/overflow buckets). *)
        Testkit.check_abs ~tol:0.0 "q=0 tracks underflow" 0.001
          (Histogram.quantile h 0.0);
        Testkit.check_abs ~tol:0.0 "q=1 tracks overflow" 123456.0
          (Histogram.quantile h 1.0);
        let empty = Histogram.create () in
        Testkit.check_true "empty q=0 is nan"
          (Float.is_nan (Histogram.quantile empty 0.0));
        Testkit.check_true "empty q=1 is nan"
          (Float.is_nan (Histogram.quantile empty 1.0)));
    Testkit.case "reset empties without changing the grid" (fun () ->
        fresh ();
        let h = Histogram.create () in
        Histogram.observe h 1.0;
        Histogram.reset h;
        Alcotest.(check int) "count" 0 (Histogram.count h);
        Testkit.check_true "mean is nan" (Float.is_nan (Histogram.mean h)));
  ]

let span_tests =
  [
    Testkit.case "nesting builds a tree, children in start order" (fun () ->
        fresh ();
        Registry.enable ();
        Span.with_ ~name:"outer" (fun () ->
            Span.set_attr "k" (Json.Int 7);
            Span.with_ ~name:"first" (fun () -> ());
            Span.with_ ~name:"second" (fun () ->
                Span.with_ ~name:"inner" (fun () -> ())));
        (match Span.roots () with
        | [ root ] ->
          Alcotest.(check string) "root name" "outer" root.Span.name;
          Alcotest.(check (list string)) "child order" [ "first"; "second" ]
            (List.map (fun (c : Span.t) -> c.Span.name) root.Span.children);
          Testkit.check_true "attr recorded"
            (List.assoc_opt "k" root.Span.attrs = Some (Json.Int 7));
          Testkit.check_true "root wall covers children"
            (root.Span.wall_s
            >= List.fold_left
                 (fun a (c : Span.t) -> a +. c.Span.wall_s)
                 0.0 root.Span.children);
          (match root.Span.children with
          | [ _; second ] ->
            Alcotest.(check (list string)) "grandchild" [ "inner" ]
              (List.map (fun (c : Span.t) -> c.Span.name) second.Span.children)
          | _ -> Alcotest.fail "expected two children")
        | roots -> Alcotest.fail (Printf.sprintf "expected 1 root, got %d" (List.length roots)));
        Registry.disable ());
    Testkit.case "roots complete in completion order" (fun () ->
        fresh ();
        Registry.enable ();
        Span.with_ ~name:"a" (fun () -> ());
        Span.with_ ~name:"b" (fun () -> ());
        Alcotest.(check (list string)) "order" [ "a"; "b" ]
          (List.map (fun (s : Span.t) -> s.Span.name) (Span.roots ()));
        Registry.disable ());
    Testkit.case "a raising span is still closed and recorded" (fun () ->
        fresh ();
        Registry.enable ();
        (try Span.with_ ~name:"boom" (fun () -> failwith "x") with Failure _ -> ());
        Alcotest.(check (list string)) "recorded" [ "boom" ]
          (List.map (fun (s : Span.t) -> s.Span.name) (Span.roots ()));
        (* The stack must be balanced: a new span is a fresh root. *)
        Span.with_ ~name:"after" (fun () -> ());
        Alcotest.(check int) "two roots" 2 (List.length (Span.roots ()));
        Registry.disable ());
  ]

(* Serialization is lossy in exactly one way: non-finite floats become
   JSON null (the format has no NaN/Infinity).  Everything else — raw
   byte strings, control characters, extreme exponents, deep nesting —
   must survive a to_string/of_string round trip bit-exactly. *)
let rec json_normalize = function
  | Json.Float f when not (Float.is_finite f) -> Json.Null
  | Json.List l -> Json.List (List.map json_normalize l)
  | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> (k, json_normalize v)) kvs)
  | j -> j

let json_gen =
  let open QCheck2.Gen in
  let str =
    oneof
      [
        small_string ~gen:printable;
        small_string ~gen:char;
        oneofl [ ""; "\xce\xbb \xe2\x88\x9e \xc2\xb5s"; "tab\there\nand \"quotes\"" ];
      ]
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) float;
        map
          (fun f -> Json.Float f)
          (oneofl
             [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 1e308; 5.36e-6 ]);
        map (fun s -> Json.String s) str;
      ]
  in
  let tree =
    fix
      (fun self n ->
        if n = 0 then scalar
        else
          frequency
            [
              (3, scalar);
              (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 2))));
              ( 1,
                map
                  (fun kvs -> Json.Obj kvs)
                  (list_size (0 -- 4) (pair str (self (n / 2)))) );
            ])
      3
  in
  tree

let json_props =
  [
    Testkit.qcheck "compact serialization round-trips" json_gen (fun j ->
        Json.of_string (Json.to_string j) = json_normalize j);
    Testkit.qcheck "pretty serialization round-trips" json_gen (fun j ->
        Json.of_string (Json.to_string_pretty j) = json_normalize j);
  ]

let prometheus_golden =
  String.concat "\n"
    [
      "# HELP t_demo_total demo counter";
      "# TYPE t_demo_total counter";
      "t_demo_total 3";
      "# HELP t_demo_ratio demo gauge";
      "# TYPE t_demo_ratio gauge";
      "t_demo_ratio 2.5";
      "# HELP t_demo_size demo histogram";
      "# TYPE t_demo_size histogram";
      "t_demo_size_bucket{le=\"1\"} 0";
      "t_demo_size_bucket{le=\"10\"} 1";
      "t_demo_size_bucket{le=\"100\"} 2";
      "t_demo_size_bucket{le=\"+Inf\"} 3";
      "t_demo_size_sum 555";
      "t_demo_size_count 3";
      "";
    ]

let sink_tests =
  [
    Testkit.case "prometheus exposition matches golden" (fun () ->
        fresh ();
        Registry.enable ();
        let c = Registry.Counter.v ~help:"demo counter" "t_demo_total" in
        let g = Registry.Gauge.v ~help:"demo gauge" "t_demo_ratio" in
        let h =
          Registry.Hist.v ~help:"demo histogram" ~lo:1.0 ~hi:100.0
            ~buckets_per_decade:1 "t_demo_size"
        in
        Registry.Counter.incr ~by:3 c;
        Registry.Gauge.set g 2.5;
        List.iter (Registry.Hist.observe h) [ 5.0; 50.0; 500.0 ];
        Alcotest.(check string) "exposition" prometheus_golden (Sink.to_prometheus ());
        Registry.disable ());
    Testkit.case "help text is escaped in the exposition" (fun () ->
        fresh ();
        Registry.enable ();
        let c =
          Registry.Counter.v ~help:"line one\nback\\slash\rdone" "t_esc_total"
        in
        Registry.Counter.incr c;
        let out = Sink.to_prometheus () in
        Testkit.check_true "breaks and backslashes escaped"
          (Testkit.contains
             ~needle:"# HELP t_esc_total line one\\nback\\\\slash\\ndone" out);
        Testkit.check_true "sample line intact"
          (Testkit.contains ~needle:"t_esc_total 1" out);
        Registry.disable ());
    Testkit.case "metric-name grammar and sanitization" (fun () ->
        Testkit.check_true "scheme name" (Sink.valid_metric_name "ptrng_ok:name_2");
        Testkit.check_false "space" (Sink.valid_metric_name "bad name");
        Testkit.check_false "leading digit" (Sink.valid_metric_name "2bad");
        Testkit.check_false "empty" (Sink.valid_metric_name "");
        Alcotest.(check string) "valid passes through" "good_name"
          (Sink.sanitize_metric_name "good_name");
        Alcotest.(check string) "invalid chars mapped" "bad_name_x"
          (Sink.sanitize_metric_name "bad-name.x");
        Alcotest.(check string) "leading digit prefixed" "_2fast"
          (Sink.sanitize_metric_name "2fast");
        Testkit.check_true "sanitized is always valid"
          (Sink.valid_metric_name (Sink.sanitize_metric_name "9 weird\nname")));
    Testkit.case "invalid registered name is sanitized, not dropped" (fun () ->
        fresh ();
        Registry.enable ();
        let c = Registry.Counter.v ~help:"h" "bad metric-name" in
        Registry.Counter.incr c;
        let out = Sink.to_prometheus () in
        Testkit.check_true "sanitized sample served"
          (Testkit.contains ~needle:"bad_metric_name 1" out);
        Testkit.check_false "raw name absent"
          (Testkit.contains ~needle:"bad metric-name 1" out);
        Registry.disable ());
    Testkit.case "snapshot json round-trips through the parser" (fun () ->
        fresh ();
        Registry.enable ();
        let c = Registry.Counter.v "t_rt_total" in
        Registry.Counter.incr ~by:42 c;
        let j = Json.of_string (Json.to_string (Sink.snapshot_json ())) in
        (match Json.member "schema" j with
        | Some (Json.String "ptrng-telemetry/1") -> ()
        | _ -> Alcotest.fail "schema tag lost");
        let metrics = Option.get (Json.member "metrics" j) in
        Testkit.check_true "counter survives"
          (Json.member "t_rt_total" metrics = Some (Json.Int 42));
        Registry.disable ());
  ]

(* Helpers over the exported trace. *)
let trace_events j =
  match Json.member "traceEvents" j with
  | Some (Json.List l) -> l
  | _ -> Alcotest.fail "no traceEvents list"

let events_with_ph ph evs =
  List.filter (fun e -> Json.member "ph" e = Some (Json.String ph)) evs

let event_name e =
  match Json.member "name" e with Some (Json.String s) -> s | _ -> "?"

let float_field key e =
  match Option.bind (Json.member key e) Json.to_float with
  | Some f -> f
  | None -> Alcotest.fail (Printf.sprintf "event lacks numeric %s" key)

let trace_tests =
  [
    Testkit.case "perfetto export is parseable and structurally sound" (fun () ->
        fresh ();
        Registry.enable ();
        Span.with_ ~name:"outer" (fun () ->
            Runtime_profile.sample_now ();
            Span.with_ ~name:"inner" (fun () ->
                ignore (Sys.opaque_identity (Array.make 4096 0.0)));
            Runtime_profile.sample_now ());
        let g = Registry.Gauge.v ~help:"trace test gauge" "t_trace_gauge" in
        Registry.Gauge.set g 3.25;
        let path = Filename.temp_file "ptrng_trace" ".json" in
        Trace_export.write path;
        let j =
          Json.of_string (In_channel.with_open_text path In_channel.input_all)
        in
        Sys.remove path;
        (match Json.member "displayTimeUnit" j with
        | Some (Json.String "ms") -> ()
        | _ -> Alcotest.fail "displayTimeUnit is not ms");
        (match Option.bind (Json.member "otherData" j) (Json.member "schema") with
        | Some (Json.String "ptrng-trace/1") -> ()
        | _ -> Alcotest.fail "schema tag missing");
        let evs = trace_events j in
        let xs = events_with_ph "X" evs in
        Alcotest.(check (list string)) "span events in tree order"
          [ "outer"; "inner" ] (List.map event_name xs);
        (match xs with
        | [ outer; inner ] ->
          let ts e = float_field "ts" e and dur e = float_field "dur" e in
          Testkit.check_true "ts starts near origin" (ts outer >= 0.0);
          Testkit.check_true "inner starts inside outer" (ts inner >= ts outer);
          Testkit.check_true "inner ends inside outer"
            (ts inner +. dur inner <= ts outer +. dur outer +. 1e-3);
          Alcotest.(check int) "same domain track"
            (int_of_float (float_field "tid" outer))
            (int_of_float (float_field "tid" inner));
          Testkit.check_true "alloc recorded in args"
            (match
               Option.bind (Json.member "args" inner)
                 (Json.member "alloc_bytes")
             with
            | Some a -> Option.get (Json.to_float a) > 0.0
            | None -> false)
        | _ -> Alcotest.fail "expected exactly two X events");
        let cs = events_with_ph "C" evs in
        let track name =
          List.filter (fun e -> event_name e = name) cs |> List.length
        in
        Alcotest.(check int) "two gc minor samples" 2 (track "gc minor collections");
        Alcotest.(check int) "two gc heap samples" 2 (track "gc heap MiB");
        Alcotest.(check int) "gauge emitted once" 1 (track "t_trace_gauge");
        let ms = events_with_ph "M" evs in
        Testkit.check_true "process_name metadata"
          (List.exists (fun e -> event_name e = "process_name") ms);
        Testkit.check_true "thread_name metadata"
          (List.exists (fun e -> event_name e = "thread_name") ms);
        Registry.disable ());
    Testkit.case "runtime profiler background sampler records a series" (fun () ->
        fresh ();
        Registry.enable ();
        Runtime_profile.start ~interval_s:0.001 ();
        Testkit.check_true "running" (Runtime_profile.running ());
        (* Idempotent: a second start must not spawn a second sampler. *)
        Runtime_profile.start ~interval_s:0.001 ();
        Unix.sleepf 0.02;
        Runtime_profile.stop ();
        Testkit.check_false "stopped" (Runtime_profile.running ());
        let samples = Runtime_profile.samples () in
        Testkit.check_true "at least start+closing samples"
          (List.length samples >= 2);
        let rec chronological = function
          | (a : Runtime_profile.sample) :: (b :: _ as rest) ->
            a.Runtime_profile.t_s <= b.Runtime_profile.t_s && chronological rest
          | _ -> true
        in
        Testkit.check_true "samples are chronological" (chronological samples);
        List.iter
          (fun (s : Runtime_profile.sample) ->
            Testkit.check_true "gc counters sane"
              (s.Runtime_profile.minor_collections >= 0
              && s.Runtime_profile.heap_words > 0))
          samples;
        Registry.disable ());
  ]

let noop_tests =
  [
    Testkit.case "disabled instrumentation records nothing" (fun () ->
        fresh ();
        let c = Registry.Counter.v "t_off_total" in
        let h = Registry.Hist.v "t_off_seconds" in
        Registry.Counter.incr ~by:1000 c;
        Registry.Hist.observe h 1.0;
        let r = Registry.Hist.time h (fun () -> 9) in
        Alcotest.(check int) "time passes result through" 9 r;
        Span.with_ ~name:"off" (fun () -> ());
        Runtime_profile.sample_now ();
        Testkit.check_true "no runtime samples" (Runtime_profile.samples () = []);
        Alcotest.(check int) "counter untouched" 0 (Registry.Counter.value c);
        Alcotest.(check int) "histogram untouched" 0
          (Histogram.count (Registry.Hist.histogram h));
        Testkit.check_true "no spans" (Span.roots () = []));
    Testkit.case "no metric leaks into any sink while disabled" (fun () ->
        fresh ();
        let c = Registry.Counter.v "t_leak_total" in
        Registry.Counter.incr c;
        Testkit.check_true "all is empty" (Registry.all () = []);
        Alcotest.(check string) "prometheus empty" "" (Sink.to_prometheus ());
        Alcotest.(check string) "human empty" "" (Sink.to_human ());
        (match Json.member "metrics" (Sink.snapshot_json ()) with
        | Some (Json.Obj []) -> ()
        | _ -> Alcotest.fail "snapshot leaked metrics");
        (* Flipping telemetry on later must not resurrect dropped events. *)
        Registry.enable ();
        Alcotest.(check int) "nothing retroactive" 0 (Registry.Counter.value c);
        Registry.disable ());
    Testkit.case "registration is idempotent by name" (fun () ->
        fresh ();
        Registry.enable ();
        let a = Registry.Counter.v "t_same_total" in
        let b = Registry.Counter.v "t_same_total" in
        Registry.Counter.incr a;
        Registry.Counter.incr b;
        Alcotest.(check int) "shared handle" 2 (Registry.Counter.value a);
        Alcotest.(check int) "single registration" 1 (List.length (Registry.all ()));
        Registry.disable ());
  ]

let series_tests =
  [
    Testkit.case "records are timestamped and ordered oldest first" (fun () ->
        fresh ();
        Registry.enable ();
        let s = Series.v ~help:"demo" "t_series_demo" in
        Series.record_at s ~t_s:1.0 10.0;
        Series.record_at s ~t_s:2.0 20.0;
        (match Series.points s with
        | [ (1.0, 10.0); (2.0, 20.0) ] -> ()
        | _ -> Alcotest.fail "points lost or reordered");
        Testkit.check_true "listed in all ()"
          (List.mem_assoc "t_series_demo" (Series.all ()));
        Registry.disable ());
    Testkit.case "disabled or non-finite records are dropped" (fun () ->
        fresh ();
        let s = Series.v "t_series_off" in
        Series.record_at s ~t_s:1.0 1.0;
        Registry.enable ();
        Series.record_at s ~t_s:2.0 nan;
        Series.record_at s ~t_s:3.0 infinity;
        Testkit.check_true "nothing recorded" (Series.points s = []);
        Registry.disable ());
    Testkit.case "reset drops samples, keeps the registration" (fun () ->
        fresh ();
        Registry.enable ();
        let s = Series.v "t_series_reset" in
        Series.record_at s ~t_s:1.0 1.0;
        Series.reset ();
        Testkit.check_true "samples gone" (Series.points s = []);
        Testkit.check_true "registration kept"
          (List.mem_assoc "t_series_reset" (Series.all ()));
        Series.record_at s ~t_s:2.0 2.0;
        Testkit.check_true "handle still live"
          (Series.points s = [ (2.0, 2.0) ]);
        Registry.disable ());
    Testkit.case "series render as perfetto counter tracks" (fun () ->
        fresh ();
        Registry.enable ();
        let s = Series.v ~help:"track" "t_series_track" in
        Series.record_at s ~t_s:1.0 5.0;
        Series.record_at s ~t_s:1.5 6.0;
        let evs = trace_events (Trace_export.to_json ()) in
        let track =
          List.filter
            (fun e -> Json.member "name" e = Some (Json.String "t_series_track"))
            (events_with_ph "C" evs)
        in
        Alcotest.(check int) "one counter event per sample" 2 (List.length track);
        Registry.disable ());
  ]

let schema_tests =
  [
    Testkit.case "bench reports are ptrng-bench/2, bench-history is gone"
      (fun () ->
        Alcotest.(check string) "bench tag" "ptrng-bench/2" (Schema.id "bench");
        (match Schema.find "bench" with
        | Some e ->
          Alcotest.(check string) "bench doc"
            "bench report: sections, telemetry snapshot" e.Schema.doc
        | None -> Alcotest.fail "bench unregistered");
        Testkit.check_true "bench-history unregistered"
          (Schema.find "bench-history" = None);
        match Schema.id "bench-history" with
        | _ -> Alcotest.fail "Schema.id accepted an unregistered name"
        | exception Invalid_argument _ -> ());
    Testkit.case "the registry is sorted by name without duplicates"
      (fun () ->
        let names = List.map (fun e -> e.Schema.name) Schema.all in
        Alcotest.(check (list string)) "strictly ascending"
          (List.sort_uniq compare names) names);
  ]

let () =
  Alcotest.run "ptrng_telemetry"
    [
      ("histogram", histogram_tests);
      ("span", span_tests);
      ("json", json_props);
      ("sink", sink_tests);
      ("series", series_tests);
      ("trace", trace_tests);
      ("noop", noop_tests);
      ("schema", schema_tests);
    ]
