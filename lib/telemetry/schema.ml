(* Central registry of every wire-format schema tag the repo emits.
   A schema tag is the string "ptrng-<name>/<version>" carried in the
   "schema" field of a JSON document.  Emitters build the tag through
   {!id} instead of repeating the literal, and the R9 lint rule checks
   that any literal that still looks like a tag matches this table —
   so a version bump happens in exactly one place and skewed emitters
   cannot drift silently. *)

type entry = { name : string; version : int; doc : string }

(* Sorted by name so the listing (and any iteration) is stable. *)
let all =
  [
    { name = "bench"; version = 2;
      doc = "bench report: sections, telemetry snapshot" };
    { name = "callgraph"; version = 1;
      doc = "ptrng-lint --graph-out dump: nodes, edges, SCCs" };
    { name = "incident"; version = 1;
      doc = "frozen flight-recorder bundle: trigger, rings, configs" };
    { name = "incident-summary"; version = 1;
      doc = "incident listing row: trigger and stream positions" };
    { name = "incidents"; version = 1;
      doc = "GET /incidents index: summaries of frozen bundles" };
    { name = "lint"; version = 1;
      doc = "ptrng-lint report: findings, counts, rules" };
    { name = "lint-baseline"; version = 1;
      doc = "accepted-finding fingerprints with per-entry notes" };
    { name = "monitor-health"; version = 1;
      doc = "GET /health document: verdict, charts, live r_N" };
    { name = "postmortem"; version = 1;
      doc = "incident replay outcome: segment and full-replay checks" };
    { name = "scenario"; version = 1;
      doc = "scenario run report: detection scores per workload" };
    { name = "telemetry"; version = 1;
      doc = "metrics + spans snapshot (Sink.to_json)" };
    { name = "trace"; version = 1;
      doc = "Chrome/Perfetto catapult trace (Trace_export)" };
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let version name = Option.map (fun e -> e.version) (find name)

let tag name version = Printf.sprintf "ptrng-%s/%d" name version

let id name =
  match find name with
  | Some e -> tag e.name e.version
  | None -> invalid_arg (Printf.sprintf "Schema.id: unregistered schema %S" name)

(* ------------------------------------------------------------------ *)
(* Literal scanning (used by the R9 lint rule)                         *)
(* ------------------------------------------------------------------ *)

let is_name_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-'
let is_digit c = c >= '0' && c <= '9'

(* Occurrences of "ptrng-<name>/<version>" inside [s], left to right.
   The name grammar is [a-z0-9-]+ and the version [0-9]+, mirroring
   what every emitter actually writes. *)
let scan s =
  let n = String.length s in
  let marker = "ptrng-" in
  let mlen = String.length marker in
  let rec span p pred = if p < n && pred s.[p] then span (p + 1) pred else p in
  let rec go acc i =
    if i + mlen >= n then List.rev acc
    else if String.sub s i mlen = marker then begin
      let name_start = i + mlen in
      let name_end = span name_start is_name_char in
      if name_end > name_start && name_end < n && s.[name_end] = '/' then begin
        let ver_start = name_end + 1 in
        let ver_end = span ver_start is_digit in
        if ver_end > ver_start then
          let name = String.sub s name_start (name_end - name_start) in
          let version = int_of_string (String.sub s ver_start (ver_end - ver_start)) in
          go ((name, version) :: acc) ver_end
        else go acc (i + 1)
      end
      else go acc (i + 1)
    end
    else go acc (i + 1)
  in
  go [] 0
