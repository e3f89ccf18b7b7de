module FA = Float.Array
module Json = Ptrng_telemetry.Json
module M = Ptrng_monitor
module FR = Ptrng_monitor.Flight_recorder

type verdict = {
  id : int;
  kind : string;
  workload : string;
  segment_match : bool;
  bundle_match : bool;
  replayed : Json.t option;
  errors : string list;
}

(* ------------------------------------------------------------------ *)
(* Bundle field access                                                 *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let obj_field k j =
  match Json.member k j with Some v -> v | None -> bad "missing field %S" k

let int_field k j =
  match Json.member k j with Some (Json.Int n) -> n | _ -> bad "field %S is not an int" k

(* A count the replay loops or allocates by: 0 or a negative value
   would reach Pair.fill or Float.Array.create as an exception. *)
let positive_field k j =
  let n = int_field k j in
  if n < 1 then bad "field %S is %d, expected an integer >= 1" k n;
  n

let str_field k j =
  match Json.member k j with
  | Some (Json.String s) -> s
  | _ -> bad "field %S is not a string" k

let float_list_field k j =
  match Json.member k j with
  | Some (Json.List l) ->
    Array.of_list
      (List.map
         (fun v ->
           match Json.to_float v with
           | Some f -> f
           | None -> bad "field %S holds a non-number" k)
         l)
  | _ -> bad "field %S is not a list" k

let provenance_of_json j =
  {
    FR.kind = str_field "kind" j;
    workload = str_field "workload" j;
    seed = int_field "seed" j;
    divisor = positive_field "divisor" j;
    chunk = positive_field "chunk" j;
    flicker_block = positive_field "flicker_block" j;
  }

let recorder_config_of_json j =
  {
    FR.jitter_capacity = int_field "jitter_capacity" j;
    bit_capacity = int_field "bit_capacity" j;
    window_capacity = int_field "window_capacity" j;
    post_windows = int_field "post_windows" j;
    max_incidents = int_field "max_incidents" j;
  }

let schema = "ptrng-incident/1"

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | raw -> (
    match Json.of_string raw with
    | exception Failure e -> Error (Printf.sprintf "%s: bad JSON: %s" path e)
    | j -> (
      match Json.member "schema" j with
      | Some (Json.String s) when s = schema -> Ok j
      | Some (Json.String s) ->
        Error (Printf.sprintf "%s: schema %S, expected %S" path s schema)
      | _ -> Error (Printf.sprintf "%s: missing schema tag" path)))

(* ------------------------------------------------------------------ *)
(* Stream reconstruction                                               *)
(* ------------------------------------------------------------------ *)

(* The stream of the original run: scenario workloads resolve through
   the registry, monitor workloads rebuild the attacked pair. *)
let stream_of (prov : FR.provenance) =
  let rng = Ptrng_prng.Rng.create ~seed:(Int64.of_int prov.seed) () in
  let pair = Ptrng_osc.Pair.paper_pair () in
  match prov.kind with
  | "scenario" -> (
    match Registry.find prov.workload with
    | None -> bad "unknown scenario %S" prov.workload
    | Some e ->
      ( Ptrng_osc.Pair.stream ~flicker_block:prov.flicker_block
          ~scenario:e.Registry.scenario rng pair,
        Some e ))
  | "monitor" -> (
    match Ptrng_trng.Attack.of_string prov.workload with
    | Error e -> bad "monitor workload: %s" e
    | Ok spec ->
      ( Ptrng_osc.Pair.stream ~flicker_block:prov.flicker_block rng
          (Ptrng_trng.Attack.apply spec pair),
        None ))
  | k -> bad "unknown provenance kind %S" k

(* ------------------------------------------------------------------ *)
(* Cheap segment verification: Pair.skip to the ring position          *)
(* ------------------------------------------------------------------ *)

let segment_check bundle =
  try
    let prov = provenance_of_json (obj_field "provenance" bundle) in
    let capture = obj_field "capture" bundle in
    let jitter_start = int_field "jitter_start" capture in
    let jitter = float_list_field "jitter" capture in
    let stream, _ = stream_of prov in
    Ptrng_osc.Pair.skip stream jitter_start;
    let n = Array.length jitter in
    let p1 = FA.create n and p2 = FA.create n in
    Ptrng_osc.Pair.fill stream ~p1 ~p2 ~len:n;
    let ok = ref true in
    for i = 0 to n - 1 do
      if
        Int64.bits_of_float (FA.get p1 i -. FA.get p2 i)
        <> Int64.bits_of_float jitter.(i)
      then ok := false
    done;
    Ok !ok
  with Bad e -> Error e

(* ------------------------------------------------------------------ *)
(* Full deterministic replay                                           *)
(* ------------------------------------------------------------------ *)

let replay bundle =
  try
    let prov = provenance_of_json (obj_field "provenance" bundle) in
    let rec_cfg = recorder_config_of_json (obj_field "recorder" bundle) in
    let mon_cfg =
      match M.Monitor.config_of_json (obj_field "monitor_config" bundle) with
      | Some c -> c
      | None -> bad "monitor_config does not parse"
    in
    let id = int_field "id" bundle in
    let at_period = int_field "at_period" (obj_field "trigger" bundle) in
    let stream, entry = stream_of prov in
    (* The replay must present the identical chunk partitioning: the
       refit cadence is evaluated once per chunk, so partitioning is
       part of the trajectory.  Scenario runs cap at the registry run
       length (and always fill [min chunk remaining]); monitor runs
       fill whole chunks, capped a safe margin past the trigger. *)
    let cap, partial_tail =
      match entry with
      | Some e -> (e.Registry.periods, true)
      | None ->
        ( at_period
          + ((rec_cfg.FR.post_windows + 8) * mon_cfg.M.Monitor.bit_window
            * prov.divisor)
          + (2 * prov.chunk),
          false )
    in
    let mon = M.Monitor.create mon_cfg in
    let recorder = FR.create ~config:rec_cfg ~provenance:prov () in
    M.Monitor.attach_recorder mon recorder;
    let chunk = prov.chunk in
    let feed = Runner.step ~chunk ~divisor:prov.divisor stream mon in
    let pos = ref 0 in
    while FR.incident_count recorder <= id && !pos < cap do
      let len = if partial_tail then min chunk (cap - !pos) else chunk in
      feed ~len;
      pos := !pos + len
    done;
    match FR.incident recorder id with
    | Some i -> Ok (FR.incident_json recorder i)
    | None ->
      Error
        (Printf.sprintf
           "replay streamed %d periods without freezing incident %d" !pos id)
  with Bad e -> Error e

let verify bundle =
  let id = try int_field "id" bundle with Bad _ -> -1 in
  let kind, workload =
    try
      let p = obj_field "provenance" bundle in
      (str_field "kind" p, str_field "workload" p)
    with Bad _ -> ("?", "?")
  in
  let errors = ref [] in
  let segment_match =
    match segment_check bundle with
    | Ok true -> true
    | Ok false ->
      errors := "captured jitter segment does not reproduce" :: !errors;
      false
    | Error e ->
      errors := Printf.sprintf "segment check: %s" e :: !errors;
      false
  in
  let bundle_match, replayed =
    match replay bundle with
    | Error e ->
      errors := Printf.sprintf "replay: %s" e :: !errors;
      (false, None)
    | Ok r ->
      if Json.to_string r = Json.to_string bundle then (true, Some r)
      else begin
        errors := "replayed bundle differs from the recorded one" :: !errors;
        (false, Some r)
      end
  in
  { id; kind; workload; segment_match; bundle_match; replayed;
    errors = List.rev !errors }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let paint color code s = if color then "\x1b[" ^ code ^ "m" ^ s ^ "\x1b[0m" else s

let severity_glyph = function 0 -> '.' | 1 -> 'd' | _ -> 'F'
let status_name = function
  | 0 -> "ok"
  | 1 -> "degraded"
  | _ -> "failing"

let timeline ?(color = true) bundle =
  try
    let b = Buffer.create 1024 in
    let trigger = obj_field "trigger" bundle in
    let capture = obj_field "capture" bundle in
    let id = int_field "id" bundle in
    let direction = str_field "direction" trigger in
    let sev_to = int_field "severity_to" trigger in
    let at_window = int_field "at_window" trigger in
    let head =
      Printf.sprintf "incident %d — %s to %s at window %d (period %d, bit %d)"
        id direction (status_name sev_to) at_window
        (int_field "at_period" trigger)
        (int_field "at_bit" trigger)
    in
    Buffer.add_string b
      (paint color (if sev_to > 0 then "1;33" else "1;32") head);
    Buffer.add_char b '\n';
    (match Json.member "reasons" trigger with
    | Some (Json.List l) ->
      List.iter
        (fun r ->
          Buffer.add_string b
            (Printf.sprintf "  reason: %s — %s\n" (str_field "code" r)
               (str_field "detail" r)))
        l
    | _ -> ());
    let rows =
      match Json.member "windows" capture with
      | Some (Json.List l) -> Array.of_list l
      | _ -> [||]
    in
    let n = Array.length rows in
    if n > 0 then begin
      let col k = Array.map (fun r -> Option.value ~default:nan (Json.to_float (obj_field k r))) rows in
      let first = int_field "index" rows.(0) in
      let last = int_field "index" rows.(n - 1) in
      Buffer.add_string b
        (Printf.sprintf "  captured windows %d..%d:\n" first last);
      let line name xs =
        Buffer.add_string b
          (Printf.sprintf "    %-12s %s\n" name (M.Dashboard.spark xs))
      in
      line "r_N" (col "r_n");
      line "min-entropy" (col "min_entropy");
      line "alarms" (col "alarms");
      let strip =
        String.init n (fun i -> severity_glyph (int_field "severity" rows.(i)))
      in
      Buffer.add_string b (Printf.sprintf "    %-12s %s\n" "severity" strip);
      let marker =
        String.init n (fun i ->
            if int_field "index" rows.(i) = at_window then '^' else ' ')
      in
      if String.trim marker <> "" then
        Buffer.add_string b (Printf.sprintf "    %-12s %s  (^ trigger)\n" "" marker)
    end;
    (match Json.member "transitions" capture with
    | Some (Json.List (_ :: _ as l)) ->
      Buffer.add_string b "  transitions:\n";
      List.iter
        (fun tr ->
          Buffer.add_string b
            (Printf.sprintf "    window %d: %s -> %s (period %d, bit %d)\n"
               (int_field "window" tr)
               (status_name (int_field "from" tr))
               (status_name (int_field "to" tr))
               (int_field "at_period" tr)
               (int_field "at_bit" tr)))
        l
    | _ -> ());
    Buffer.contents b
  with Bad e -> Printf.sprintf "timeline unavailable: %s\n" e

let report_json ~file v =
  Json.Obj
    [
      ("schema", Json.String "ptrng-postmortem/1");
      ("file", Json.String file);
      ("id", Json.Int v.id);
      ("kind", Json.String v.kind);
      ("workload", Json.String v.workload);
      ("segment_match", Json.Bool v.segment_match);
      ("bundle_match", Json.Bool v.bundle_match);
      ("ok", Json.Bool (v.segment_match && v.bundle_match));
      ("errors", Json.List (List.map (fun e -> Json.String e) v.errors));
    ]
