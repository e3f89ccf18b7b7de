(* The domain pool's one contract: whatever runs through it returns
   bit-identical results for every domain count — plus the usual
   edge-case and failure-path coverage.  The @par-smoke alias re-runs
   this binary under PTRNG_DOMAINS=1 and =4 so both the sequential
   fallback and the true parallel path stay exercised. *)

module Pool = Ptrng_exec.Pool
module Rng = Ptrng_prng.Rng

let domain_counts = [ 1; 2; 4 ]

(* Run [f d] for every probed domain count and assert all results are
   structurally (hence for floats bitwise) equal. *)
let check_invariant name f =
  match List.map f domain_counts with
  | [] -> assert false
  | reference :: rest ->
    List.iteri
      (fun i r ->
        Testkit.check_true
          (Printf.sprintf "%s: domains=%d matches domains=%d" name
             (List.nth domain_counts (i + 1))
             (List.hd domain_counts))
          (r = reference))
      rest

let pool_tests =
  [
    Testkit.case "parallel_map keeps input order" (fun () ->
        let xs = Array.init 100 (fun i -> i) in
        let expected = Array.map (fun x -> x * x) xs in
        List.iter
          (fun d ->
            Alcotest.(check (array int))
              (Printf.sprintf "domains=%d" d)
              expected
              (Pool.parallel_map ~domains:d (fun x -> x * x) xs))
          domain_counts);
    Testkit.case "empty and singleton inputs" (fun () ->
        Alcotest.(check (array int)) "map empty" [||]
          (Pool.parallel_map ~domains:4 (fun x -> x) [||]);
        Alcotest.(check (array int)) "map singleton" [| 7 |]
          (Pool.parallel_map ~domains:4 (fun x -> x + 1) [| 6 |]);
        Alcotest.(check int) "init_floats 0" 0
          (Array.length
             (Pool.parallel_init_floats ~domains:4 ~rng:(Testkit.rng ())
                ~fill:(fun _ ~offset:_ ~len:_ _ -> ())
                0));
        Alcotest.(check int) "map_streams 0" 0
          (Array.length
             (Pool.parallel_map_streams ~domains:4 ~rng:(Testkit.rng ())
                (fun _ _ -> 0)
                0));
        Alcotest.(check (array int)) "filter_map empty" [||]
          (Pool.parallel_filter_map ~domains:4 (fun x -> Some x) [||]));
    Testkit.case "filter_map keeps order and drops Nones" (fun () ->
        let xs = Array.init 50 (fun i -> i) in
        let keep_even x = if x mod 2 = 0 then Some (x * 10) else None in
        let expected = Array.init 25 (fun i -> i * 20) in
        List.iter
          (fun d ->
            Alcotest.(check (array int))
              (Printf.sprintf "domains=%d" d)
              expected
              (Pool.parallel_filter_map ~domains:d keep_even xs))
          domain_counts);
    Testkit.case "map_streams passes each index in order" (fun () ->
        check_invariant "indices" (fun d ->
            Pool.parallel_map_streams ~domains:d ~rng:(Testkit.rng ())
              (fun i _ -> i)
              37);
        Alcotest.(check (array int))
          "index i in slot i" (Array.init 37 Fun.id)
          (Pool.parallel_map_streams ~domains:4 ~rng:(Testkit.rng ())
             (fun i _ -> i)
             37));
    Testkit.case "every task runs exactly once" (fun () ->
        List.iter
          (fun d ->
            let hits = Array.init 50 (fun _ -> Atomic.make 0) in
            ignore
              (Pool.parallel_map ~domains:d (fun i -> Atomic.incr hits.(i))
                 (Array.init 50 Fun.id));
            Array.iteri
              (fun i h ->
                Alcotest.(check int)
                  (Printf.sprintf "domains=%d task %d" d i)
                  1 (Atomic.get h))
              hits)
          domain_counts;
        ignore
          (Pool.parallel_map ~domains:4
             (fun _ -> Alcotest.fail "no task expected")
             [||]);
        ignore
          (Pool.parallel_map_streams ~domains:4 ~rng:(Testkit.rng ())
             (fun _ _ -> Alcotest.fail "no task expected")
             0));
    Testkit.case "bad sizes are rejected" (fun () ->
        Alcotest.check_raises "map domains 0"
          (Invalid_argument "Pool: domains < 1") (fun () ->
            ignore (Pool.parallel_map ~domains:0 Fun.id [| 1 |]));
        Alcotest.check_raises "streams domains 0"
          (Invalid_argument "Pool: domains < 1") (fun () ->
            ignore
              (Pool.parallel_map_streams ~domains:0 ~rng:(Testkit.rng ())
                 (fun _ _ -> ()) 1));
        Alcotest.check_raises "chunk 0" (Invalid_argument "Pool: chunk <= 0") (fun () ->
            ignore
              (Pool.parallel_init_floats ~domains:1 ~chunk:0 ~rng:(Testkit.rng ())
                 ~fill:(fun _ ~offset:_ ~len:_ _ -> ())
                 8));
        Alcotest.check_raises "n -1" (Invalid_argument "Pool.parallel_init_floats: n < 0")
          (fun () ->
            ignore
              (Pool.parallel_init_floats ~domains:1 ~rng:(Testkit.rng ())
                 ~fill:(fun _ ~offset:_ ~len:_ _ -> ())
                 (-1)));
        Alcotest.check_raises "streams -1"
          (Invalid_argument "Pool.parallel_map_streams: n < 0") (fun () ->
            ignore
              (Pool.parallel_map_streams ~domains:1 ~rng:(Testkit.rng ()) (fun _ _ -> ()) (-1))));
    Testkit.case "a worker exception aborts the section and re-raises" (fun () ->
        let xs = Array.init 64 (fun i -> i) in
        Alcotest.check_raises "original exception" (Failure "boom") (fun () ->
            ignore
              (Pool.parallel_map ~domains:4
                 (fun x -> if x = 37 then failwith "boom" else x)
                 xs)));
    Testkit.case "nested sections resolve to one domain" (fun () ->
        (* Workers only compute; Alcotest is not domain-safe, so every
           check runs on the main domain. *)
        let self () = (Domain.self () :> int) in
        let inner =
          Pool.parallel_map ~domains:4
            (fun _ ->
              (* A nested map still works; it just runs sequentially,
                 every nested task on the worker's own domain (the sleep
                 gives other domains time to take tasks if it did not). *)
              let nested = Pool.parallel_map ~domains:4 (fun x -> x) [| 1; 2 |] in
              let doms =
                Pool.parallel_map ~domains:4
                  (fun () -> Unix.sleepf 0.002; self ())
                  (Array.make 8 ())
              in
              (nested, self (), doms))
            (Array.make 8 ())
        in
        Array.iter
          (fun (nested, worker, doms) ->
            Alcotest.(check (array int)) "nested result" [| 1; 2 |] nested;
            Array.iter
              (Alcotest.(check int) "nested task on the worker's domain" worker)
              doms)
          inner);
    Testkit.case "set_default and PTRNG_DOMAINS resolution order" (fun () ->
        Unix.putenv "PTRNG_DOMAINS" "3";
        Alcotest.(check int) "env wins without CLI" 3 (Pool.available ());
        Pool.set_default (Some 2);
        Alcotest.(check int) "CLI override wins" 2 (Pool.available ());
        Pool.set_default None;
        Unix.putenv "PTRNG_DOMAINS" "not-a-number";
        Testkit.check_true "malformed env ignored" (Pool.available () >= 1);
        Unix.putenv "PTRNG_DOMAINS" "";
        Alcotest.check_raises "domains < 1 rejected"
          (Invalid_argument "Pool.set_default: domains < 1") (fun () ->
            Pool.set_default (Some 0)));
  ]

let rng_stream_tests =
  [
    Testkit.case "init_floats is bit-identical across domains and fills every slot"
      (fun () ->
        List.iter
          (fun n ->
            check_invariant
              (Printf.sprintf "n=%d" n)
              (fun d ->
                let rng = Testkit.rng ~seed:11L () in
                Pool.parallel_init_floats ~domains:d ~chunk:7 ~rng
                  ~fill:(fun child ~offset ~len out ->
                    for k = offset to offset + len - 1 do
                      out.(k) <- 1.0 +. Rng.float child
                    done)
                  n);
            let out =
              Pool.parallel_init_floats ~domains:4 ~chunk:7 ~rng:(Testkit.rng ())
                ~fill:(fun child ~offset ~len out ->
                  for k = offset to offset + len - 1 do
                    out.(k) <- 1.0 +. Rng.float child
                  done)
                n
            in
            Array.iter
              (fun v -> Testkit.check_true "slot written" (v >= 1.0))
              out)
          (* Around the custom chunk size 7: below, at, above, multiple. *)
          [ 1; 6; 7; 8; 13; 14; 15; 70 ]);
    Testkit.case "caller rng advances by one draw regardless of domains" (fun () ->
        let after d =
          let rng = Testkit.rng ~seed:21L () in
          ignore
            (Pool.parallel_init_floats ~domains:d ~rng
               ~fill:(fun child ~offset ~len out ->
                 for k = offset to offset + len - 1 do
                   out.(k) <- Rng.float child
                 done)
               20000);
          Rng.bits64 rng
        in
        check_invariant "next caller draw" after);
    Testkit.case "map_streams task i draws child i of one root" (fun () ->
        let rng = Testkit.rng ~seed:32L () in
        let draws =
          Pool.parallel_map_streams ~domains:4 ~rng (fun _ child -> Rng.bits64 child) 9
        in
        let root = Rng.bits64 (Testkit.rng ~seed:32L ()) in
        Array.iteri
          (fun index v ->
            Alcotest.(check int64) (Printf.sprintf "task %d" index)
              (Rng.bits64 (Rng.child ~root ~index ())) v)
          draws);
    Testkit.case "map_streams derives one stream per task" (fun () ->
        check_invariant "streams" (fun d ->
            let rng = Testkit.rng ~seed:31L () in
            Pool.parallel_map_streams ~domains:d ~rng
              (fun i child -> (i, Rng.bits64 child, Rng.bits64 child))
              17);
        (* Distinct tasks must see distinct streams. *)
        let rng = Testkit.rng ~seed:31L () in
        let draws =
          Pool.parallel_map_streams ~domains:4 ~rng
            (fun _ child -> Rng.bits64 child)
            17
        in
        let distinct =
          List.sort_uniq compare (Array.to_list draws) |> List.length
        in
        Alcotest.(check int) "all distinct" 17 distinct);
  ]

let workload_tests =
  [
    Testkit.case "variance curve is bit-identical across domains" (fun () ->
        let jitter =
          let g = Testkit.rng ~seed:41L () in
          Array.init 20000 (fun _ -> 1e-12 *. Ptrng_prng.Gaussian.draw g)
        in
        let ns = Ptrng_measure.Variance_curve.log2_grid ~n_min:4 ~n_max:1024 in
        check_invariant "curve" (fun d ->
            Ptrng_measure.Variance_curve.of_jitter ~domains:d ~f0:103e6 ~ns jitter);
        let curve =
          Ptrng_measure.Variance_curve.of_jitter ~domains:2 ~f0:103e6 ~ns jitter
        in
        let fit = Ptrng_measure.Fit.fit ~f0:103e6 curve in
        check_invariant "fitted (a, b)" (fun d ->
            let c =
              Ptrng_measure.Variance_curve.of_jitter ~domains:d ~f0:103e6 ~ns
                jitter
            in
            let f = Ptrng_measure.Fit.fit ~f0:103e6 c in
            (f.a, f.b));
        Testkit.check_true "fit is finite" (Float.is_finite fit.a));
    Testkit.case "spectral synthesis is bit-identical across domains" (fun () ->
        check_invariant "generate_many" (fun d ->
            let rng = Testkit.rng ~seed:52L () in
            Ptrng_noise.Spectral_synth.generate_many ~domains:d rng
              ~psd:(Testkit.psd ~hm1:1e-3 ())
              ~fs:1.0 ~count:5 (1 lsl 10)));
    Testkit.case "pair and restart traces are bit-identical across domains"
      (fun () ->
        check_invariant "pair simulate" (fun d ->
            Ptrng_osc.Pair.simulate ~domains:d (Testkit.rng ~seed:62L ())
              (Ptrng_osc.Pair.paper_pair ()) ~n:20000);
        let cfg =
          Ptrng_osc.Oscillator.config ~f0:103e6
            ~phase:{ Ptrng_noise.Psd_model.b_th = 138.0; b_fl = 9.6e5 }
            ()
        in
        check_invariant "restart ensemble" (fun d ->
            Ptrng_osc.Restart.ensemble ~domains:d (Testkit.rng ~seed:63L ())
              cfg ~restarts:16 ~n:512));
    Testkit.slow_case "characterize replicates are bit-identical across domains"
      (fun () ->
        let pair = Ptrng_osc.Pair.paper_pair () in
        check_invariant "fitted ensemble" (fun d ->
            Pool.parallel_map_streams ~domains:d ~rng:(Testkit.rng ~seed:81L ())
              (fun _ rng ->
                let a = Ptrng_model.Multilevel.characterize ~n_periods:2048 ~rng pair in
                (a.fit.a, a.fit.b))
              3));
    Testkit.case "phase chain runs are bit-identical across domains" (fun () ->
        let chain = Ptrng_model.Phase_chain.create ~bins:64 ~drift:0.1 ~diffusion:0.4 () in
        check_invariant "phase chain runs" (fun d ->
            Pool.parallel_map_streams ~domains:d ~rng:(Testkit.rng ~seed:82L ())
              (fun _ rng -> Ptrng_model.Phase_chain.simulate rng chain ~bits:500)
              6));
    Testkit.case "test batteries return identical reports across domains"
      (fun () ->
        let bits =
          let rng = Testkit.rng ~seed:71L () in
          Array.init 20000 (fun _ -> Rng.bool rng)
        in
        check_invariant "sp800-22" (fun d ->
            Ptrng_nist22.Sp80022.run_all ~domains:d bits));
  ]

(* ------------------------------------------------------------------ *)
(* Telemetry under the pool: spans must stay per-domain                *)
(* ------------------------------------------------------------------ *)

module Tm = Ptrng_telemetry

(* Every in-tree parent/child edge must stay on one domain: worker
   spans are collected as separate worker roots, never spliced across
   domains. *)
let rec check_edges_same_tid (s : Tm.Span.t) =
  List.iter
    (fun (c : Tm.Span.t) ->
      Alcotest.(check int)
        (Printf.sprintf "edge %s->%s stays on one domain" s.Tm.Span.name
           c.Tm.Span.name)
        s.Tm.Span.tid c.Tm.Span.tid;
      check_edges_same_tid c)
    s.Tm.Span.children

let rec count_named name (s : Tm.Span.t) =
  (if s.Tm.Span.name = name then 1 else 0)
  + List.fold_left (fun a c -> a + count_named name c) 0 s.Tm.Span.children

(* For each tid, the X events must form a proper nesting: any two
   intervals are either disjoint or one contains the other. *)
let check_tid_nesting events =
  let field key e = Option.bind (Tm.Json.member key e) Tm.Json.to_float in
  let spans =
    List.filter_map
      (fun e ->
        match (field "tid" e, field "ts" e, field "dur" e) with
        | Some tid, Some ts, Some dur -> Some (int_of_float tid, ts, dur)
        | _ -> None)
      events
  in
  let tids = List.sort_uniq compare (List.map (fun (t, _, _) -> t) spans) in
  List.iter
    (fun tid ->
      let mine = List.filter (fun (t, _, _) -> t = tid) spans in
      List.iter
        (fun (_, ts_a, dur_a) ->
          List.iter
            (fun (_, ts_b, dur_b) ->
              let ea = ts_a +. dur_a and eb = ts_b +. dur_b in
              let eps = 1e-3 (* us *) in
              let disjoint = ea <= ts_b +. eps || eb <= ts_a +. eps in
              let a_in_b = ts_a >= ts_b -. eps && ea <= eb +. eps in
              let b_in_a = ts_b >= ts_a -. eps && eb <= ea +. eps in
              Testkit.check_true
                (Printf.sprintf "tid %d intervals nest" tid)
                (disjoint || a_in_b || b_in_a))
            mine)
        mine)
    tids

let telemetry_tests =
  [
    Testkit.case "spans under Pool.run nest per domain, no cross-domain edges"
      (fun () ->
        Tm.Registry.clear ();
        Tm.Span.reset ();
        Tm.Runtime_profile.reset ();
        Tm.Registry.enable ();
        Fun.protect
          ~finally:(fun () -> Tm.Registry.disable ())
          (fun () ->
            let xs = Array.init 64 (fun i -> i) in
            let result = ref [||] in
            Tm.Span.with_ ~name:"section" (fun () ->
                result :=
                  Pool.parallel_map ~domains:4
                    (fun x -> Tm.Span.with_ ~name:"task" (fun () -> x * 2))
                    xs);
            Alcotest.(check (array int)) "payload unchanged"
              (Array.map (fun x -> x * 2) xs)
              !result;
            let roots = Tm.Span.roots () in
            let workers = Tm.Span.worker_roots () in
            (match roots with
            | [ root ] ->
              Alcotest.(check string) "main root" "section" root.Tm.Span.name;
              let main_tid = root.Tm.Span.tid in
              List.iter
                (fun (w : Tm.Span.t) ->
                  Testkit.check_true "worker root is on another domain"
                    (w.Tm.Span.tid <> main_tid))
                workers
            | l ->
              Alcotest.fail
                (Printf.sprintf "expected 1 main root, got %d" (List.length l)));
            List.iter check_edges_same_tid roots;
            List.iter check_edges_same_tid workers;
            let tasks =
              List.fold_left (fun a s -> a + count_named "task" s) 0 roots
              + List.fold_left (fun a s -> a + count_named "task" s) 0 workers
            in
            Alcotest.(check int) "every task span recorded" 64 tasks;
            (* The exported trace must be valid JSON whose per-domain
               tracks are properly nested. *)
            let path = Filename.temp_file "ptrng_pool_trace" ".json" in
            Tm.Trace_export.write path;
            let j =
              Tm.Json.of_string
                (In_channel.with_open_text path In_channel.input_all)
            in
            Sys.remove path;
            match Tm.Json.member "traceEvents" j with
            | Some (Tm.Json.List evs) ->
              let xs_events =
                List.filter
                  (fun e ->
                    Tm.Json.member "ph" e = Some (Tm.Json.String "X"))
                  evs
              in
              Alcotest.(check int) "one X event per span" 65
                (List.length xs_events);
              check_tid_nesting xs_events
            | _ -> Alcotest.fail "exported trace lacks traceEvents"));
  ]

let () =
  Alcotest.run "ptrng_exec"
    [
      ("pool", pool_tests);
      ("rng-streams", rng_stream_tests);
      ("workloads", workload_tests);
      ("telemetry", telemetry_tests);
    ]
