(* ptrng-lint: each rule against a violating and a clean fixture, the
   baseline workflow, and the JSON round-trip of the report schema.

   Fixtures are real OCaml sources compiled with ocamlc -bin-annot into
   a scratch directory, then loaded with [scope_all] so the rules skip
   their repo-path scoping.  Each check selects a single rule: the
   fixtures have no .mli, which R5 would otherwise flag everywhere. *)

module A = Ptrng_analysis
module Json = Ptrng_telemetry.Json

let ocamlc =
  (* dune exposes the toolchain on PATH inside test actions. *)
  "ocamlc"

let scratch = ref None

let scratch_dir () =
  match !scratch with
  | Some d -> d
  | None ->
    let d = Filename.temp_file "ptrng_lint_fix" "" in
    Sys.remove d;
    Unix.mkdir d 0o755;
    scratch := Some d;
    d

(* Compile [source] as [name].ml in the scratch dir; returns the cmt
   path.  Fixture names are unique per test so reruns in one process
   cannot collide. *)
let compile ~name source =
  let dir = scratch_dir () in
  let ml = Filename.concat dir (name ^ ".ml") in
  let oc = open_out ml in
  output_string oc source;
  close_out oc;
  let cmd =
    Printf.sprintf "cd %s && %s -bin-annot -c %s.ml 2>%s.err" (Filename.quote dir)
      ocamlc name name
  in
  if Sys.command cmd <> 0 then
    Alcotest.failf "fixture %s does not compile: %s" name
      (In_channel.with_open_text
         (Filename.concat dir (name ^ ".err"))
         In_channel.input_all);
  Filename.concat dir (name ^ ".cmt")

let findings_of ~rule_id ~name source =
  let cmt = compile ~name source in
  let loader = A.Loader.load_files ~scope_all:true [ cmt ] in
  let rule =
    match A.Rules.find rule_id with
    | Some r -> r
    | None -> Alcotest.failf "unknown rule %s" rule_id
  in
  A.Engine.run ~rules:[ rule ] loader

let check_flags ~rule_id ~name ~detail_part source =
  let fs = findings_of ~rule_id ~name source in
  Testkit.check_true
    (Printf.sprintf "%s flags %s" rule_id name)
    (List.exists
       (fun (f : A.Finding.t) ->
         Testkit.contains ~needle:detail_part f.A.Finding.detail
         || Testkit.contains ~needle:detail_part f.A.Finding.message)
       fs);
  fs

let check_clean ~rule_id ~name source =
  match findings_of ~rule_id ~name source with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "%s should be clean for %s but: %s" rule_id name
      (Format.asprintf "%a" A.Finding.pp f)

(* ------------------------------------------------------------------ *)
(* Per-rule fixtures                                                   *)
(* ------------------------------------------------------------------ *)

let r1_tests =
  [
    Testkit.case "R1 flags Random and wall-clock calls" (fun () ->
        let fs =
          check_flags ~rule_id:"R1" ~name:"r1_bad" ~detail_part:"Random"
            "let roll () = Random.int 6\nlet now () = Sys.time ()\n"
        in
        Testkit.check_true "Sys.time flagged too"
          (List.exists
             (fun (f : A.Finding.t) ->
               Testkit.contains ~needle:"Sys.time" f.A.Finding.detail)
             fs);
        List.iter
          (fun (f : A.Finding.t) ->
            Testkit.check_true "R1 is error severity"
              (f.A.Finding.severity = A.Finding.Error))
          fs);
    Testkit.case "R1 flags hash-order iteration, not keyed lookup" (fun () ->
        ignore
          (check_flags ~rule_id:"R1" ~name:"r1_hash" ~detail_part:"Hashtbl.fold"
             "let sum h = Hashtbl.fold (fun _ v acc -> v + acc) h 0\n");
        check_clean ~rule_id:"R1" ~name:"r1_ok"
          "let lookup h k = Hashtbl.find_opt h k\nlet add h k v = Hashtbl.replace h k v\n");
  ]

let r2_tests =
  [
    Testkit.case "R2 flags float equality and unguarded division" (fun () ->
        ignore
          (check_flags ~rule_id:"R2" ~name:"r2_eq" ~detail_part:"float-="
             "let degenerate s = s = 0.0\n");
        ignore
          (check_flags ~rule_id:"R2" ~name:"r2_div" ~detail_part:"div-by-n"
             "let mean total n = total /. float_of_int n\n"));
    Testkit.case "R2 accepts epsilon guards and validated denominators"
      (fun () ->
        check_clean ~rule_id:"R2" ~name:"r2_ok"
          "let near_zero x = Float.abs x < 1e-12\n\
           let mean total n = if n <= 0 then nan else total /. float_of_int n\n\
           let fixed total = total /. float_of_int 2048\n");
  ]

let r3_tests =
  (* A local module named Pool makes the suffix-based entry-point match
     fire without depending on ptrng_exec from a fixture. *)
  let pool_prelude =
    "module Pool = struct let parallel_map f a = Array.map f a end\n"
  in
  [
    Testkit.case "R3 flags a module-level ref reachable from pool tasks"
      (fun () ->
        ignore
          (check_flags ~rule_id:"R3" ~name:"r3_bad" ~detail_part:"counter"
             (pool_prelude
             ^ "let counter = ref 0\n\
                let work () = Pool.parallel_map (fun i -> counter := !counter + i) [| 1 |]\n"
             )));
    Testkit.case "R3 accepts Atomic state and mutex-guarded modules" (fun () ->
        check_clean ~rule_id:"R3" ~name:"r3_atomic"
          (pool_prelude
          ^ "let counter = Atomic.make 0\n\
             let work () = Pool.parallel_map (fun i -> ignore i; Atomic.incr counter) [| 1 |]\n"
          );
        check_clean ~rule_id:"R3" ~name:"r3_mutex"
          (pool_prelude
          ^ "let lock = Mutex.create ()\n\
             let counter = ref 0\n\
             let work () =\n\
             \  Pool.parallel_map (fun i ->\n\
             \    Mutex.protect lock (fun () -> counter := !counter + i)) [| 1 |]\n"
          ));
    Testkit.case "R3 reports an unreachable module-level ref as info"
      (fun () ->
        let fs =
          findings_of ~rule_id:"R3" ~name:"r3_unreachable"
            "let cache = ref 0\nlet bump () = incr cache\n"
        in
        match fs with
        | [ f ] ->
          Testkit.check_true "info severity"
            (f.A.Finding.severity = A.Finding.Info)
        | _ -> Alcotest.failf "expected exactly one info finding, got %d"
                 (List.length fs));
  ]

let r4_tests =
  (* Local Span/Mutex modules stand in for the real pairs. *)
  let prelude =
    "module Span = struct let enter _ = () let exit _ = () end\n"
  in
  [
    Testkit.case "R4 flags a bare enter/exit pair" (fun () ->
        ignore
          (check_flags ~rule_id:"R4" ~name:"r4_bad" ~detail_part:"Span.enter"
             (prelude
             ^ "let timed f = Span.enter \"x\"; let r = f () in Span.exit \"x\"; r\n"
             )));
    Testkit.case "R4 accepts the pair under Fun.protect" (fun () ->
        check_clean ~rule_id:"R4" ~name:"r4_ok"
          (prelude
          ^ "let timed f =\n\
             \  Span.enter \"x\";\n\
             \  Fun.protect ~finally:(fun () -> Span.exit \"x\") f\n"
          ));
    Testkit.case "R4 accepts the closure-free release-and-reraise idiom"
      (fun () ->
        (* The zero-allocation spelling on hot entries: a [try] whose
           handler releases the pair and re-raises is exception-safe
           without the per-call closure Mutex.protect would build. *)
        check_clean ~rule_id:"R4" ~name:"r4_manual"
          "let m = Mutex.create ()\n\
           let locked f =\n\
           \  Mutex.lock m;\n\
           \  (try f () with e -> Mutex.unlock m; raise e);\n\
           \  Mutex.unlock m\n");
    Testkit.case "R4 still flags a handler that swallows without releasing"
      (fun () ->
        ignore
          (check_flags ~rule_id:"R4" ~name:"r4_swallow"
             ~detail_part:"Mutex.lock"
             "let m = Mutex.create ()\n\
              let leaky f =\n\
              \  Mutex.lock m;\n\
              \  (try f () with _ -> ());\n\
              \  Mutex.unlock m\n"));
  ]

let r5_tests =
  [
    Testkit.case "R5 flags a lib module without an mli" (fun () ->
        ignore
          (check_flags ~rule_id:"R5" ~name:"r5_bad" ~detail_part:"mli"
             "let answer = 42\n"));
    Testkit.case "R5 flags an undocumented val and accepts a documented one"
      (fun () ->
        (* An interface fixture: compile the mli alone to get a cmti. *)
        let dir = scratch_dir () in
        let write name text =
          let oc = open_out (Filename.concat dir name) in
          output_string oc text;
          close_out oc
        in
        write "r5_iface.mli"
          "val documented : int\n(** Has a doc comment. *)\n\nval bare : int\n";
        write "r5_iface.ml" "let documented = 1\nlet bare = 2\n";
        let cmd =
          Printf.sprintf
            "cd %s && %s -bin-annot -c r5_iface.mli r5_iface.ml 2>/dev/null"
            (Filename.quote dir) ocamlc
        in
        if Sys.command cmd <> 0 then Alcotest.fail "r5_iface does not compile";
        let loader =
          A.Loader.load_files ~scope_all:true
            [
              Filename.concat dir "r5_iface.cmt";
              Filename.concat dir "r5_iface.cmti";
            ]
        in
        let rule = Option.get (A.Rules.find "R5") in
        let fs = A.Engine.run ~rules:[ rule ] loader in
        Testkit.check_true "bare flagged"
          (List.exists
             (fun (f : A.Finding.t) -> f.A.Finding.symbol = "bare")
             fs);
        Testkit.check_false "documented not flagged"
          (List.exists
             (fun (f : A.Finding.t) -> f.A.Finding.symbol = "documented")
             fs));
  ]

(* ------------------------------------------------------------------ *)
(* Call graph and the interprocedural rules                            *)
(* ------------------------------------------------------------------ *)

(* Compile several fixtures in one ocamlc invocation so cross-module
   references resolve against the scratch dir's cmi files; returns a
   loader over all of their cmts.  Dependency order matters. *)
let compile_all specs =
  let dir = scratch_dir () in
  List.iter
    (fun (name, source) ->
      let oc = open_out (Filename.concat dir (name ^ ".ml")) in
      output_string oc source;
      close_out oc)
    specs;
  let files = String.concat " " (List.map (fun (n, _) -> n ^ ".ml") specs) in
  let cmd =
    Printf.sprintf "cd %s && %s -bin-annot -c %s 2>multi.err"
      (Filename.quote dir) ocamlc files
  in
  if Sys.command cmd <> 0 then
    Alcotest.failf "fixtures [%s] do not compile: %s" files
      (In_channel.with_open_text
         (Filename.concat dir "multi.err")
         In_channel.input_all);
  A.Loader.load_files ~scope_all:true
    (List.map (fun (n, _) -> Filename.concat dir (n ^ ".cmt")) specs)

let callgraph_tests =
  [
    Testkit.case "mutual recursion collapses into one SCC, callees first"
      (fun () ->
        let g =
          A.Callgraph.build
            (compile_all
               [
                 ( "cg_scc",
                   "let rec ping n = if n = 0 then 0 else pong (n - 1)\n\
                    and pong n = if n = 0 then 1 else ping (n - 1)\n\
                    let entry n = ping n\n" );
               ])
        in
        Alcotest.(check (list string))
          "ping and pong share an SCC"
          [ "Cg_scc.ping"; "Cg_scc.pong" ]
          (List.sort compare (A.Callgraph.scc_members g "Cg_scc.ping"));
        Alcotest.(check (list string))
          "entry sits alone"
          [ "Cg_scc.entry" ]
          (A.Callgraph.scc_members g "Cg_scc.entry");
        match
          ( A.Callgraph.scc_index g "Cg_scc.ping",
            A.Callgraph.scc_index g "Cg_scc.entry" )
        with
        | Some callee, Some caller ->
          Testkit.check_true "recursive pair precedes its caller"
            (callee < caller)
        | _ -> Alcotest.fail "SCC index missing");
    Testkit.case "edges and reachability cross compilation units" (fun () ->
        let g =
          A.Callgraph.build
            (compile_all
               [
                 ("cg_leaf", "let f x = x + 1\nlet unused x = x * 2\n");
                 ("cg_root", "let run x = Cg_leaf.f x\n");
               ])
        in
        (match A.Callgraph.find g "Cg_root.run" with
        | None -> Alcotest.fail "Cg_root.run not in the graph"
        | Some n ->
          Testkit.check_true "resolved cross-unit edge"
            (List.mem "Cg_leaf.f" n.A.Callgraph.callees));
        let parents =
          A.Callgraph.reachable g ~roots:[ "Cg_root.run" ]
            ~follow:(fun _ -> true)
        in
        Testkit.check_true "callee reached across units"
          (Hashtbl.mem parents "Cg_leaf.f");
        Testkit.check_false "sibling not reached"
          (Hashtbl.mem parents "Cg_leaf.unused");
        Alcotest.(check (list string))
          "witness path, root first"
          [ "Cg_root.run"; "Cg_leaf.f" ]
          (A.Callgraph.witness parents "Cg_leaf.f"));
    Testkit.case "a call through a let-module alias is an edge" (fun () ->
        let g =
          A.Callgraph.build
            (compile_all
               [
                 ("cg_lib", "module Inner = struct let g x = x - 1 end\n");
                 ( "cg_user",
                   "module L = Cg_lib\n\
                    let direct x = let module M = Cg_lib.Inner in M.g x\n\
                    let chained x = let module I = L.Inner in I.g x\n" );
               ])
        in
        List.iter
          (fun caller ->
            match A.Callgraph.find g caller with
            | None -> Alcotest.failf "%s not in the graph" caller
            | Some n ->
              Testkit.check_true (caller ^ " calls Cg_lib.Inner.g")
                (List.mem "Cg_lib.Inner.g" n.A.Callgraph.callees);
              Alcotest.(check (list string))
                (caller ^ " has no unresolved external") []
                n.A.Callgraph.externals)
          [ "Cg_user.direct"; "Cg_user.chained" ]);
    Testkit.case "a shadowed binding keeps its node and its callees" (fun () ->
        let g =
          A.Callgraph.build
            (compile_all
               [
                 ( "cg_shadow",
                   "let leaf x = x + 1\n\
                    let step x = leaf x\n\
                    let step x = try step x with Not_found -> 0\n" );
                 ("cg_shadow_user", "let run x = Cg_shadow.step x\n");
               ])
        in
        (match A.Callgraph.find g "Cg_shadow.step#1" with
        | None -> Alcotest.fail "the first step binding has no node"
        | Some n ->
          Alcotest.(check (list string)) "first binding calls the leaf"
            [ "Cg_shadow.leaf" ] n.A.Callgraph.callees);
        (match A.Callgraph.find g "Cg_shadow.step" with
        | None -> Alcotest.fail "the last step binding has no node"
        | Some n ->
          Alcotest.(check (list string)) "the wrapper calls the first binding"
            [ "Cg_shadow.step#1" ] n.A.Callgraph.callees);
        let parents =
          A.Callgraph.reachable g ~roots:[ "Cg_shadow_user.run" ]
            ~follow:(fun _ -> true)
        in
        Alcotest.(check (list string))
          "an outside reference reaches the leaf through both bindings"
          [ "Cg_shadow_user.run"; "Cg_shadow.step"; "Cg_shadow.step#1";
            "Cg_shadow.leaf" ]
          (A.Callgraph.witness parents "Cg_shadow.leaf"));
  ]

(* R7 against a fixture-local manifest. *)
let run_r7 ~entries ?(cuts = []) specs =
  let loader = compile_all specs in
  let rule =
    A.Rule_hotpath.make ~manifest:{ A.Rule_hotpath.entries; cuts } ()
  in
  A.Engine.run ~rules:[ rule ] loader

let r7_tests =
  [
    Testkit.case "an injected transitive allocation fails the proof"
      (fun () ->
        (* The acceptance fixture: the entry itself is clean, the
           allocation hides one call away — a fresh array, or a
           whole-array combinator on a hot buffer. *)
        List.iter
          (fun (unit, helper, allocator) ->
            let entry = String.capitalize_ascii unit ^ ".fill" in
            let fs =
              run_r7 ~entries:[ entry ]
                [ (unit, helper ^ "\nlet fill n = helper n\n") ]
            in
            match fs with
            | [ f ] ->
              Testkit.check_true "allocator named"
                (Testkit.contains ~needle:allocator f.A.Finding.detail);
              Testkit.check_true "witness call path in the message"
                (Testkit.contains ~needle:("reachable from " ^ entry)
                   f.A.Finding.message);
              Testkit.check_true "warning severity"
                (f.A.Finding.severity = A.Finding.Warning)
            | _ ->
              Alcotest.failf "%s: expected exactly one finding, got %d" unit
                (List.length fs))
          [
            ("r7_trans", "let helper n = Array.make n 0.0", "Array.make");
            ("r7_map", "let helper xs = Array.map Float.abs xs", "Array.map");
          ]);
    Testkit.case "the same allocator out of reach stays clean" (fun () ->
        Alcotest.(check int)
          "no findings" 0
          (List.length
             (run_r7 ~entries:[ "R7_clean.fill" ]
                [
                  ( "r7_clean",
                    "let cold n = Array.make n 0.0\n\
                     let fill buf = Float.Array.set buf 0 1.0\n" );
                ])));
    Testkit.case "a manifest entry naming nothing is an error" (fun () ->
        let fs =
          run_r7 ~entries:[ "R7_ghost.nope" ]
            [ ("r7_ghost", "let fill buf = Float.Array.set buf 0 1.0\n") ]
        in
        match fs with
        | [ f ] ->
          Testkit.check_true "error severity"
            (f.A.Finding.severity = A.Finding.Error);
          Testkit.check_true "names the missing entry"
            (Testkit.contains ~needle:"missing-entry:R7_ghost.nope"
               f.A.Finding.detail)
        | _ -> Alcotest.fail "expected exactly one manifest-drift error");
    Testkit.case "an amortized cut stops traversal but leaves an Info trail"
      (fun () ->
        let fs =
          run_r7 ~entries:[ "R7_cut.fill" ]
            ~cuts:[ ("R7_cut.flush", "flushes once per window") ]
            [
              ( "r7_cut",
                "let flush n = Array.make n 0.0\n\
                 let fill n = let _a = flush n in 0\n" );
            ]
        in
        match fs with
        | [ f ] ->
          Testkit.check_true "info severity"
            (f.A.Finding.severity = A.Finding.Info);
          Testkit.check_true "cut named"
            (Testkit.contains ~needle:"amortized-cut:R7_cut.flush"
               f.A.Finding.detail);
          Testkit.check_true "the why travels in the message"
            (Testkit.contains ~needle:"once per window" f.A.Finding.message)
        | _ ->
          Alcotest.failf
            "expected only the cut's Info finding, got %d findings"
            (List.length fs));
    Testkit.case "a boxed int64 return is flagged; [@inline] erases it"
      (fun () ->
        let fs =
          run_r7 ~entries:[ "R7_box.fill" ]
            [
              ( "r7_box",
                "let next s = Int64.add s 1L\n\
                 let fill s = Int64.to_int (next s)\n" );
            ]
        in
        Testkit.check_true "boxed return flagged"
          (List.exists
             (fun (f : A.Finding.t) ->
               Testkit.contains ~needle:"boxed-return:int64"
                 f.A.Finding.detail)
             fs);
        Alcotest.(check int)
          "inline variant is clean" 0
          (List.length
             (run_r7 ~entries:[ "R7_boxinl.fill" ]
                [
                  ( "r7_boxinl",
                    "let[@inline] next s = Int64.add s 1L\n\
                     let fill s = Int64.to_int (next s)\n" );
                ])));
  ]

let r8_tests =
  (* A local Rng module makes the suffix-based head and type matches
     fire without linking ptrng_prng into a fixture. *)
  let rng_prelude =
    "module Rng = struct\n\
    \  type t = { mutable s : int }\n\
    \  let split t = { s = t.s + 1 }\n\
    \  let bits64 t = t.s <- t.s + 1; Int64.of_int t.s\n\
     end\n"
  in
  [
    Testkit.case "R8 flags a direct draw after splitting the stream"
      (fun () ->
        ignore
          (check_flags ~rule_id:"R8" ~name:"r8_bad"
             ~detail_part:"draw-after-split:rng"
             (rng_prelude
             ^ "let bad rng =\n\
                \  let child = Rng.split rng in\n\
                \  let a = Rng.bits64 rng in\n\
                \  (child, a)\n")));
    Testkit.case "R8 accepts draw-then-split" (fun () ->
        check_clean ~rule_id:"R8" ~name:"r8_ok"
          (rng_prelude
          ^ "let ok rng =\n\
             \  let a = Rng.bits64 rng in\n\
             \  let child = Rng.split rng in\n\
             \  (child, a)\n"));
    Testkit.case "R8 sees a draw hidden behind a callee (dataflow fixpoint)"
      (fun () ->
        ignore
          (check_flags ~rule_id:"R8" ~name:"r8_via"
             ~detail_part:"draw-after-split-via:rng"
             (rng_prelude
             ^ "let draw_twice rng = Int64.add (Rng.bits64 rng) (Rng.bits64 rng)\n\
                let bad rng =\n\
                \  let child = Rng.split rng in\n\
                \  let a = draw_twice rng in\n\
                \  ignore child; a\n")));
    Testkit.case "R8 flags module-level stream state" (fun () ->
        ignore
          (check_flags ~rule_id:"R8" ~name:"r8_state"
             ~detail_part:"module-state"
             (rng_prelude ^ "let global = { Rng.s = 42 }\n")));
    Testkit.case "R8 flags a pool task capturing a stream" (fun () ->
        ignore
          (check_flags ~rule_id:"R8" ~name:"r8_pool"
             ~detail_part:"pool-capture:rng"
             (rng_prelude
             ^ "module Pool = struct let parallel_map f a = Array.map f a end\n\
                let bad rng =\n\
                \  Pool.parallel_map (fun i -> ignore i; ignore (Rng.bits64 rng)) [| 1 |]\n"
             )));
    Testkit.case "R8 warns on a split inside a sequential iterator" (fun () ->
        let fs =
          check_flags ~rule_id:"R8" ~name:"r8_iter"
            ~detail_part:"iterator-split"
            (rng_prelude
            ^ "let streams rng = Array.init 4 (fun _ -> Rng.split rng)\n")
        in
        List.iter
          (fun (f : A.Finding.t) ->
            Testkit.check_true "warning, not error — baselinable with a note"
              (f.A.Finding.severity = A.Finding.Warning))
          fs);
  ]

let r9_tests =
  [
    Testkit.case "R9 flags an unregistered schema tag" (fun () ->
        ignore
          (check_flags ~rule_id:"R9" ~name:"r9_unreg"
             ~detail_part:"unregistered"
             "let tag = \"ptrng-bogus/1\"\n"));
    Testkit.case "R9 flags a version skew against the registry" (fun () ->
        ignore
          (check_flags ~rule_id:"R9" ~name:"r9_skew"
             ~detail_part:"skew:lint@9!=1" "let old = \"ptrng-lint/9\"\n"));
    Testkit.case "R9 accepts registered current-version literals" (fun () ->
        check_clean ~rule_id:"R9" ~name:"r9_ok"
          "let ok = \"ptrng-lint/1\"\nlet prose = \"no tags here\"\n");
  ]

(* ------------------------------------------------------------------ *)
(* SARIF export                                                        *)
(* ------------------------------------------------------------------ *)

let sarif_tests =
  [
    Testkit.case "emitted SARIF validates, including after a round-trip"
      (fun () ->
        let fs =
          findings_of ~rule_id:"R1" ~name:"sarif_v1"
            "let roll () = Random.int 6\nlet t () = Sys.time ()\n"
        in
        let report =
          A.Report.make ~rules:A.Rules.all ~units:1 ~suppressed:0 fs
        in
        let doc = A.Sarif.of_report ~rules:A.Rules.all report in
        (match A.Sarif.validate doc with
        | Ok n -> Alcotest.(check int) "result count" (List.length fs) n
        | Error e -> Alcotest.fail e);
        match A.Sarif.validate (Json.of_string (Json.to_string_pretty doc)) with
        | Ok n -> Alcotest.(check int) "round-tripped count" (List.length fs) n
        | Error e -> Alcotest.fail e);
    Testkit.case "validation rejects broken documents" (fun () ->
        let fs =
          findings_of ~rule_id:"R1" ~name:"sarif_v2"
            "let roll () = Random.int 6\n"
        in
        let report =
          A.Report.make ~rules:A.Rules.all ~units:1 ~suppressed:0 fs
        in
        Testkit.check_true "undeclared ruleId rejected"
          (Result.is_error (A.Sarif.validate (A.Sarif.of_report ~rules:[] report)));
        Testkit.check_true "wrong version rejected"
          (Result.is_error
             (A.Sarif.validate
                (Json.Obj
                   [ ("version", Json.String "2.0.0"); ("runs", Json.List []) ])));
        Testkit.check_true "empty runs rejected"
          (Result.is_error
             (A.Sarif.validate
                (Json.Obj
                   [ ("version", Json.String "2.1.0"); ("runs", Json.List []) ])));
        (* A handcrafted run whose result lacks the fingerprint. *)
        let no_fp =
          Json.Obj
            [
              ("version", Json.String "2.1.0");
              ( "runs",
                Json.List
                  [
                    Json.Obj
                      [
                        ( "tool",
                          Json.Obj
                            [
                              ( "driver",
                                Json.Obj
                                  [
                                    ("name", Json.String "ptrng-lint");
                                    ( "rules",
                                      Json.List
                                        [ Json.Obj [ ("id", Json.String "R1") ] ]
                                    );
                                  ] );
                            ] );
                        ( "results",
                          Json.List
                            [
                              Json.Obj
                                [
                                  ("ruleId", Json.String "R1");
                                  ("level", Json.String "error");
                                  ( "message",
                                    Json.Obj [ ("text", Json.String "x") ] );
                                  ( "locations",
                                    Json.List
                                      [
                                        Json.Obj
                                          [
                                            ( "physicalLocation",
                                              Json.Obj
                                                [
                                                  ( "artifactLocation",
                                                    Json.Obj
                                                      [
                                                        ( "uri",
                                                          Json.String "a.ml" );
                                                      ] );
                                                ] );
                                          ];
                                      ] );
                                ];
                            ] );
                      ];
                  ] );
            ]
        in
        Testkit.check_true "missing fingerprint rejected"
          (Result.is_error (A.Sarif.validate no_fp)));
  ]

(* ------------------------------------------------------------------ *)
(* Baseline workflow and report schema                                 *)
(* ------------------------------------------------------------------ *)

let baseline_tests =
  [
    Testkit.case "a baselined finding is suppressed, a new one is fresh"
      (fun () ->
        let fs =
          findings_of ~rule_id:"R1" ~name:"bl_roll"
            "let roll () = Random.int 6\n"
        in
        Testkit.check_true "fixture produced findings" (fs <> []);
        let baseline = A.Baseline.of_findings fs in
        let fresh, suppressed = A.Baseline.apply baseline fs in
        Alcotest.(check int) "all suppressed" (List.length fs)
          (List.length suppressed);
        Alcotest.(check int) "none fresh" 0 (List.length fresh);
        (* Recompile the same module with one extra violation: the old
           fingerprint stays absorbed, the new symbol surfaces. *)
        let fs2 =
          findings_of ~rule_id:"R1" ~name:"bl_roll"
            "let roll () = Random.int 6\nlet extra () = Sys.time ()\n"
        in
        let fresh2, suppressed2 = A.Baseline.apply baseline fs2 in
        Testkit.check_true "new violation is fresh"
          (List.exists
             (fun (f : A.Finding.t) ->
               Testkit.contains ~needle:"Sys.time" f.A.Finding.detail)
             fresh2);
        Testkit.check_true "old violation stays absorbed"
          (List.exists
             (fun (f : A.Finding.t) ->
               Testkit.contains ~needle:"Random" f.A.Finding.detail)
             suppressed2));
    Testkit.case "baseline JSON round-trips" (fun () ->
        let fs =
          findings_of ~rule_id:"R1" ~name:"bl_json" "let t () = Sys.time ()\n"
        in
        let b = A.Baseline.of_findings fs in
        match A.Baseline.of_json (A.Baseline.to_json b) with
        | Ok b2 -> Alcotest.(check int) "count" (A.Baseline.count b) (A.Baseline.count b2)
        | Error e -> Alcotest.fail e);
    Testkit.case
      "prune drops dead entries, keeps notes, never absorbs a new finding"
      (fun () ->
        let fs =
          findings_of ~rule_id:"R1" ~name:"pr_v1"
            "let roll () = Random.int 6\nlet t () = Sys.time ()\n"
        in
        (match fs with
        | _ :: _ :: _ -> ()
        | _ -> Alcotest.fail "fixture must yield two findings");
        (* Attach a note to every entry through the JSON form — the
           same channel a human editing lint_baseline.json uses. *)
        let noted =
          let entries =
            match Json.member "entries" (A.Baseline.to_json (A.Baseline.of_findings fs)) with
            | Some (Json.List es) ->
              List.map
                (fun e ->
                  match e with
                  | Json.Obj kvs ->
                    Json.Obj (kvs @ [ ("note", Json.String "kept-note") ])
                  | other -> other)
                es
            | _ -> Alcotest.fail "baseline without entries"
          in
          match
            A.Baseline.of_json
              (Json.Obj
                 [
                   ("schema", Json.String "ptrng-lint-baseline/1");
                   ("entries", Json.List entries);
                 ])
          with
          | Ok b -> b
          | Error e -> Alcotest.fail e
        in
        (* Everything still live: pruning is the identity. *)
        let kept, removed = A.Baseline.prune noted fs in
        Alcotest.(check int) "nothing removed" 0 (List.length removed);
        Alcotest.(check int)
          "count unchanged"
          (A.Baseline.count noted)
          (A.Baseline.count kept);
        (* Only the Random finding survives an imagined fix of the
           Sys.time one: its entry is dropped and reported. *)
        let live =
          List.filter
            (fun (f : A.Finding.t) ->
              Testkit.contains ~needle:"Random" f.A.Finding.detail)
            fs
        in
        let kept2, removed2 = A.Baseline.prune noted live in
        Testkit.check_true "dead occurrences reported" (removed2 <> []);
        Alcotest.(check int)
          "pruned to the live set"
          (List.length live)
          (A.Baseline.count kept2);
        Testkit.check_true "note survives pruning"
          (Testkit.contains ~needle:"kept-note"
             (Json.to_string_pretty (A.Baseline.to_json kept2)));
        (* The pruned baseline must not absorb the finding it dropped:
           reintroducing the violation surfaces it as fresh. *)
        let fresh, _ = A.Baseline.apply kept2 fs in
        Testkit.check_true "reintroduced violation is fresh again"
          (List.exists
             (fun (f : A.Finding.t) ->
               Testkit.contains ~needle:"Sys.time" f.A.Finding.detail)
             fresh));
  ]

let report_tests =
  [
    Testkit.case "report JSON round-trips through Json.of_string" (fun () ->
        let fs =
          findings_of ~rule_id:"R1" ~name:"rep_v1"
            "let roll () = Random.int 6\nlet t () = Sys.time ()\n"
        in
        let report = A.Report.make ~rules:A.Rules.all ~units:1 ~suppressed:3 fs in
        let json = A.Report.to_json report in
        let reparsed = Json.of_string (Json.to_string_pretty json) in
        match A.Report.validate reparsed with
        | Error e -> Alcotest.fail e
        | Ok r2 ->
          Alcotest.(check int) "errors" (A.Report.errors report) (A.Report.errors r2);
          Alcotest.(check int) "suppressed" 3 r2.A.Report.suppressed;
          Alcotest.(check int) "units" 1 r2.A.Report.units;
          Alcotest.(check int) "findings"
            (List.length report.A.Report.findings)
            (List.length r2.A.Report.findings);
          let s = A.Report.summary_line r2 in
          Testkit.check_true "summary names the rules"
            (Testkit.contains ~needle:"R1,R2,R3,R4,R5" s);
          Testkit.check_true "summary counts baselined"
            (Testkit.contains ~needle:"(3 baselined)" s));
    Testkit.case "fingerprints ignore line drift" (fun () ->
        let f1 =
          findings_of ~rule_id:"R1" ~name:"fp_v1" "let t () = Sys.time ()\n"
        in
        let f2 =
          findings_of ~rule_id:"R1" ~name:"fp_v2"
            "(* pushed down by a comment *)\n\n\nlet t () = Sys.time ()\n"
        in
        match (f1, f2) with
        | [ a ], [ b ] ->
          (* Same rule/symbol/detail, different file names — fingerprints
             differ only in the file component. *)
          Testkit.check_true "lines differ"
            (a.A.Finding.line <> b.A.Finding.line);
          let strip_file (f : A.Finding.t) =
            (f.A.Finding.rule, f.A.Finding.symbol, f.A.Finding.detail)
          in
          Alcotest.(check bool) "location-free parts equal" true
            (strip_file a = strip_file b)
        | _ -> Alcotest.fail "expected one finding per fixture");
  ]

let () =
  Alcotest.run "ptrng_lint"
    [
      ("R1 determinism", r1_tests);
      ("R2 float safety", r2_tests);
      ("R3 concurrency", r3_tests);
      ("R4 span safety", r4_tests);
      ("R5 interface hygiene", r5_tests);
      ("call graph", callgraph_tests);
      ("R7 hot-path proof", r7_tests);
      ("R8 rng streams", r8_tests);
      ("R9 schema registry", r9_tests);
      ("sarif", sarif_tests);
      ("baseline", baseline_tests);
      ("report", report_tests);
    ]
