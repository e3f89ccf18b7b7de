(* End-to-end benchmark of the ptrng stack (see README.md).

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     main.exe --smoke BENCHMARK.json

   One workload per process.  The untraced run (--trace 0) repeats the
   workload through its public entry points for S seconds and prints
   the end-to-end metrics; the traced run (--trace 1) alternates public
   repetitions with traced replicas and prints the per-layer metrics,
   writing a Perfetto trace and a per-layer JSON file to --out-dir.  The
   last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module FA = Float.Array
module Json = Ptrng_telemetry.Json
module Tm = Ptrng_telemetry
module W = Workload

let setup_reps = 5
let starts_per_rep = 3
let min_reps = 2

(* One start of this executable with --startup: exec, runtime start and
   every module initializer, then exit. *)
let start_s () =
  let exe = Sys.executable_name in
  let t0 = Monotonic_clock.now () in
  let pid = Unix.create_process exe [| exe; "--startup" |] Unix.stdin Unix.stdout Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> W.elapsed_s t0
  | _ -> failwith "--startup run failed"

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024.0 /. 1e6)
        | Some _ -> find ()
      in
      find ())

(* Restart VmHWM from the current RSS (Linux), so the peak belongs to
   the timed repetitions and not to the set-up's garbage. *)
let reset_peak_rss () =
  Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")

(* Repeat [f] for [seconds], at least [min_reps] times.  Each
   repetition starts from a fully collected heap, so it meets the same
   GC state whatever ran before it. *)
let until ~seconds f =
  let t0 = Monotonic_clock.now () in
  let n = ref 0 in
  while !n < min_reps || W.elapsed_s t0 < seconds do
    Gc.full_major ();
    f ();
    incr n
  done;
  !n

(* ---------------------------------------------------------------- *)

(* Wall time of one repetition with every call at the lower quartile of
   its times over the repetitions.  Other tenants of a shared machine
   only ever slow a call down, in bursts of a few seconds; the lower
   quartile follows the program's own speed where the median follows
   the bursts (README.md, "Noise"). *)
let quiet_rep_s lats =
  let calls = FA.length (List.hd lats) in
  let sum = ref 0.0 in
  for i = 0 to calls - 1 do
    sum := !sum +. Stats.percentile (Array.of_list (List.map (fun l -> FA.get l i) lats)) 25.0
  done;
  !sum

(* setup_s is process start to the first timed call: the median start
   of this executable plus the median time to build the workload's
   inputs from the seed.  The starts are sampled before every
   repetition, so they span the run instead of one burst.  peak_rss_mb
   is the peak from the end of set-up to the end of the [min_reps]-th
   repetition, a stretch every run covers the same way; the other input
   builds come after it. *)
let end_to_end (w : W.t) ~seed ~shift ~seconds =
  let build () = W.timed (fun () -> w.setup ~seed ~shift) in
  let first_build, inst = build () in
  Gc.full_major ();
  reset_peak_rss ();
  let starts = ref [] and lats = ref [] and first = ref None and checks = ref [] in
  let alloc = ref 0.0 and peak = ref nan in
  let reps =
    until ~seconds (fun () ->
        for _ = 1 to starts_per_rep do
          starts := start_s () :: !starts
        done;
        let lat = FA.make inst.calls 0.0 in
        let a0 = Gc.allocated_bytes () in
        let o = inst.run lat in
        alloc := !alloc +. (Gc.allocated_bytes () -. a0);
        lats := lat :: !lats;
        if List.length !lats = min_reps then peak := peak_rss_mb ();
        match !first with
        | None ->
          first := Some o;
          checks := o.checks
        | Some (f : W.outcome) ->
          checks :=
            ( Printf.sprintf "%s.repetition_%d_identical" w.name (List.length !lats),
              o.fingerprint = f.fingerprint )
            :: !checks)
  in
  let builds = Array.init setup_reps (fun i -> if i = 0 then first_build else fst (build ())) in
  let lat_ms = FA.map_to_array (fun s -> s *. 1e3) (FA.concat !lats) in
  let pct = Stats.percentile lat_ms in
  let start = Stats.median (Array.of_list !starts) and build = Stats.median builds in
  Printf.printf
    "%s: %d repetitions of %d periods, %d calls; call latency ms p25 %.4g p50 %.4g p90 %.4g \
     p99 %.4g max %.4g; set-up = start %.4g ms + inputs %.4g ms\n"
    w.name reps inst.periods (Array.length lat_ms) (pct 25.0) (pct 50.0) (pct 90.0) (pct 99.0)
    (pct 100.0) (start *. 1e3) (build *. 1e3);
  ( [
      ("periods_per_s", float_of_int inst.periods /. quiet_rep_s !lats, "1/s");
      ("alloc_bytes_per_period", !alloc /. float_of_int (reps * inst.periods), "B");
      ("peak_rss_mb", !peak, "MB");
      ("setup_s", start +. build, "s");
    ],
    List.rev !checks )

(* ---------------------------------------------------------------- *)

let reset_telemetry () =
  Tm.Registry.reset ();
  Tm.Span.reset ();
  Tm.Series.reset ();
  Tm.Mark.reset ()

(* Median of each metric over the repetitions (same names, same order
   in every repetition). *)
let medians = function
  | [] -> []
  | first :: _ as reps ->
    List.mapi
      (fun i (name, _, unit) ->
        let vs = List.map (fun m -> let _, v, _ = List.nth m i in v) reps in
        (name, Stats.median (Array.of_list vs), unit))
      first

let traced (w : W.t) ~seed ~shift ~seconds ~out_dir =
  let inst = w.setup ~seed ~shift in
  let public_s = ref [] and traced_s = ref [] and reps = ref [] and checks = ref [] in
  let n =
    until ~seconds (fun () ->
        let dt, public = W.timed (fun () -> inst.run (FA.make inst.calls 0.0)) in
        public_s := dt :: !public_s;
        reset_telemetry ();
        Tm.Registry.enable ();
        let dt, replica =
          W.timed (fun () -> Tm.Span.with_ ~name:w.name inst.replica)
        in
        Tm.Registry.disable ();
        traced_s := dt :: !traced_s;
        (* The replica's root is the only span since the reset. *)
        let root = List.hd (Tm.Span.roots ()) in
        let stages = Ledger.stages root in
        reps := Ledger.metrics ~periods:inst.periods root stages :: !reps;
        checks :=
          !checks
          @ public.checks
          @ [
              (w.name ^ ".replica_matches_public", replica.fingerprint = public.fingerprint);
              (w.name ^ ".trace_coverage_at_least_0.95", Ledger.coverage root stages >= 0.95);
            ])
  in
  let probe_values, probe_checks = inst.probes () in
  let quiet xs = Stats.percentile (Array.of_list xs) 25.0 in
  let overhead = (quiet !traced_s /. quiet !public_s) -. 1.0 in
  let metrics = medians (List.rev !reps) @ [ ("trace.overhead", overhead, "ratio") ] in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let base = Filename.concat out_dir w.name in
  Tm.Trace_export.write (base ^ ".perfetto.json");
  (* The spans of the last traced repetition are still recorded. *)
  let root = List.hd (Tm.Span.roots ()) in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "bench-e2e-layers/1");
        ("workload", Json.String w.name);
        ("seed", Json.Int seed);
        ("periods", Json.Int inst.periods);
        ("traced_repetitions", Json.Int n);
        ("metrics", Json.Obj (List.map (fun (name, v, _) -> (name, Json.num v)) metrics));
        ( "stages",
          Json.List
            (List.map (Ledger.stage_json ~periods:inst.periods ~root) (Ledger.stages root)) );
        ("root_attrs", Json.Obj (List.rev root.attrs));
        ("probes", Json.Obj (List.map (fun (k, v) -> (k, Json.num v)) probe_values));
        ("exec.worker_tasks", Json.Int (Array.fold_left ( + ) 0 (Ptrng_exec.Pool.worker_tasks ())));
      ]
  in
  Out_channel.with_open_text (base ^ ".layers.json") (fun oc ->
      output_string oc (Json.to_string_pretty doc ^ "\n"));
  Printf.printf "%s: %d traced repetitions, overhead %.3f; trace in %s.{perfetto,layers}.json\n"
    w.name n overhead base;
  List.iter (fun (k, v) -> Printf.printf "  probe %s = %.4g\n" k v) probe_values;
  (metrics, !checks @ probe_checks)

(* ---------------------------------------------------------------- *)

(* Non-finite values are not JSON numbers: each metric must be finite. *)
let result_json metrics checks =
  let checks =
    checks
    @ List.map (fun (name, v, _) -> ("metric." ^ name ^ ".finite", Float.is_finite v)) metrics
  in
  let failed = List.filter (fun (_, ok) -> not ok) checks in
  List.iter (fun (name, _) -> Printf.printf "CHECK FAILED: %s\n" name) failed;
  Json.Obj
    [
      ("correct", Json.Bool (failed = []));
      ("attempted", Json.Int (List.length checks));
      ("failed", Json.Int (List.length failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v, unit) ->
               ( name,
                 Json.Obj
                   [
                     ("value", Json.Float (if Float.is_finite v then v else 0.0));
                     ("unit", Json.String unit);
                   ] ))
             metrics) );
    ]

let print_metrics metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "  %-34s %14.6g %s\n" name v unit) metrics

(* The tick loop's own cost with no-op feeds: the minor words a
   monitor-replay repetition allocates outside the monitor. *)
let glue_minor_words () =
  let ticks = 4096 in
  let jitter = Array.init 4 (fun _ -> FA.create 8) in
  let bits = Array.init 4 (fun _ -> Array.make 8 false) in
  let lat = FA.create ticks in
  let nop _ = () in
  let go () = W.tick_loop ~ticks ~jitter ~bits ~lat ~feed_jitter:nop ~feed_bits:nop ~poll:nop in
  go ();
  let w0 = Gc.minor_words () in
  go ();
  Gc.minor_words () -. w0

let names_of spec key =
  match Json.member key spec with
  | Some (Json.List items) ->
    List.filter_map
      (fun o -> match Json.member "name" o with Some (Json.String s) -> Some s | _ -> None)
      items
  | _ -> []

(* Every workload at 1/64 size, untraced and traced, with all output
   checks; the names printed must be the ones BENCHMARK.json lists. *)
let smoke spec_path ~out_dir =
  let spec = Json.of_string (In_channel.with_open_bin spec_path In_channel.input_all) in
  let ok = ref true in
  let same what listed printed =
    if List.sort compare listed <> List.sort compare printed then begin
      ok := false;
      Printf.printf "smoke: %s: %s lists [%s], the benchmark prints [%s]\n" what spec_path
        (String.concat ", " listed) (String.concat ", " printed)
    end
  in
  same "workloads" (names_of spec "workloads") (List.map (fun (w : W.t) -> w.name) W.all);
  let name3 (n, _, _) = n in
  let check key (metrics, checks) =
    same key (names_of spec key) (List.map name3 metrics);
    match Json.member "correct" (result_json metrics checks) with
    | Some (Json.Bool true) -> ()
    | _ -> ok := false
  in
  List.iter
    (fun (w : W.t) ->
      check "end_to_end" (end_to_end w ~seed:2014 ~shift:6 ~seconds:0.0);
      check "per_layer" (traced w ~seed:2014 ~shift:6 ~seconds:0.0 ~out_dir))
    W.all;
  let words = glue_minor_words () in
  Printf.printf "smoke: tick loop with no-op feeds allocates %.0f minor words\n" words;
  if words <> 0.0 then ok := false;
  print_endline (if !ok then "smoke: ok" else "smoke: FAILED");
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 2014 and seconds = ref 20.0 and trace = ref 0 in
  let out_dir = ref "bench_e2e/out" and smoke_spec = ref "" in
  let startup = ref false in
  let usage =
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] | --smoke BENCHMARK.json"
  in
  Arg.parse
    [
      ( "--workload", Arg.Set_string workload,
        "NAME " ^ String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all) );
      ("--seed", Arg.Set_int seed, "N input seed (default 2014)");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--out-dir", Arg.Set_string out_dir, "DIR where traced runs write (default bench_e2e/out)");
      ("--smoke", Arg.Set_string smoke_spec, "FILE run the 1/64-size smoke against FILE");
      ("--startup", Arg.Set startup, " exit at once (times the program's start)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !startup then exit 0;
  (* One domain: the closed loop has one producer, and on small boxes a
     second domain spreads the timings too widely to gate. *)
  Ptrng_exec.Pool.set_default (Some 1);
  if !smoke_spec <> "" then smoke !smoke_spec ~out_dir:!out_dir;
  let w =
    match List.find_opt (fun (x : W.t) -> x.name = !workload) W.all with
    | Some w -> w
    | None ->
      prerr_endline usage;
      exit 2
  in
  if not (!trace = 0 || !trace = 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let metrics, checks =
    if !trace = 0 then end_to_end w ~seed:!seed ~shift:0 ~seconds:!seconds
    else traced w ~seed:!seed ~shift:0 ~seconds:!seconds ~out_dir:!out_dir
  in
  print_metrics metrics;
  print_endline (Json.to_string (result_json metrics checks))
