(* Per-layer accounting of one traced repetition.

   The replica opens one span per per-layer call, named
   "<layer>.<stage>", directly under the workload's root span; a
   layer is every stage with its prefix.  Shares are of the root's
   wall time, so they add up to the coverage. *)

module Span = Ptrng_telemetry.Span
module Json = Ptrng_telemetry.Json

type stage = { name : string; calls : int; wall_s : float; alloc_bytes : float }

(* The root's direct children grouped by name, in first-seen order. *)
let stages (root : Span.t) =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (c : Span.t) ->
      match Hashtbl.find_opt tbl c.name with
      | Some s ->
        Hashtbl.replace tbl c.name
          {
            s with
            calls = s.calls + 1;
            wall_s = s.wall_s +. c.wall_s;
            alloc_bytes = s.alloc_bytes +. c.alloc_bytes;
          }
      | None ->
        order := c.name :: !order;
        Hashtbl.add tbl c.name
          { name = c.name; calls = 1; wall_s = c.wall_s; alloc_bytes = c.alloc_bytes })
    root.children;
  List.rev_map (Hashtbl.find tbl) !order

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* The layers and stages BENCHMARK.json lists; a workload that never
   calls one reports a share of 0. *)
let layers = [ "osc"; "measure"; "trng"; "monitor"; "model" ]

let stage_names =
  [
    "osc.pair_fill.first"; "osc.pair_fill"; "osc.pair_simulate"; "osc.edges_of_periods";
    "measure.jitter_acc"; "measure.counter_acc"; "measure.fit"; "trng.sampler";
    "monitor.feed_jitter_chunk"; "monitor.feed_bits"; "monitor.snapshot";
    "monitor.health_json"; "monitor.detection_observe"; "model.live_claim"; "bench.glue";
  ]

let words b = b /. float_of_int (Sys.word_size / 8)

let sum f keep stages =
  List.fold_left (fun acc s -> if keep s then acc +. f s else acc) 0.0 stages

let coverage (root : Span.t) stages = sum (fun s -> s.wall_s) (fun _ -> true) stages /. root.wall_s

(* (name, value, unit) triples of one repetition: every per-layer
   metric but trace.overhead, which needs the untraced runs too. *)
let metrics ~periods (root : Span.t) stages =
  let wall keep = sum (fun s -> s.wall_s) keep stages in
  let alloc keep = sum (fun s -> s.alloc_bytes) keep stages in
  let share keep = 100.0 *. wall keep /. root.wall_s in
  let per_period x = x /. float_of_int periods in
  [
    ("trace.coverage", coverage root stages, "ratio");
    ("trace.root_ns_per_period", per_period (root.wall_s *. 1e9), "ns");
  ]
  @ List.map (fun l -> (l ^ ".share", share (fun s -> layer_of s.name = l), "%")) layers
  @ List.map
      (fun l ->
        ( l ^ ".words_per_period",
          per_period (words (alloc (fun s -> layer_of s.name = l))),
          "words" ))
      layers
  @ List.map (fun n -> (n ^ ".share", share (fun s -> s.name = n), "%")) stage_names

let stage_json ~periods ~(root : Span.t) s =
  let per_period x = x /. float_of_int periods in
  Json.Obj
    [
      ("name", Json.String s.name);
      ("calls", Json.Int s.calls);
      ("total_ms", Json.num (s.wall_s *. 1e3));
      ("ns_per_period", Json.num (per_period (s.wall_s *. 1e9)));
      ("ns_per_call", Json.num (s.wall_s *. 1e9 /. float_of_int s.calls));
      ("words_per_period", Json.num (per_period (words s.alloc_bytes)));
      ("share_pct", Json.num (100.0 *. s.wall_s /. root.wall_s));
    ]
