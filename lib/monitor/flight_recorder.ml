module T = Ptrng_telemetry
module FA = Float.Array

type config = {
  jitter_capacity : int;
  bit_capacity : int;
  window_capacity : int;
  post_windows : int;
  max_incidents : int;
}

let default_config =
  {
    jitter_capacity = 8192;
    bit_capacity = 2048;
    window_capacity = 64;
    post_windows = 4;
    max_incidents = 8;
  }

type provenance = {
  kind : string;
  workload : string;
  seed : int;
  divisor : int;
  chunk : int;
  flicker_block : int;
}

type incident = {
  id : int;
  direction : string;
  severity_from : int;
  severity_to : int;
  at_period : int;
  at_bit : int;
  at_window : int;
  reasons : (string * string) list;
  jitter_start : int;
  jitter : float array;
  bit_start : int;
  bits : string;
  window_start : int;
  iw_index : int array;
  iw_alarms : int array;
  iw_severity : int array;
  iw_entropy : float array;
  iw_ewma : float array;
  iw_cusum : float array;
  iw_r : float array;
  itr_window : int array;
  itr_period : int array;
  itr_bit : int array;
  itr_from : int array;
  itr_to : int array;
}

(* All rings share the same discipline as Window: [head] is the next
   write slot, [total] the absolute number of values ever pushed, so
   head = total mod capacity and the oldest retained value sits at
   absolute position total - min(total, capacity).  Struct-of-arrays
   for the window rows keeps every push a plain scalar store. *)
type t = {
  cfg : config;
  prov : provenance;
  mutable mon_cfg : T.Json.t;
  jr : FA.t;
  mutable j_total : int;
  br : Bytes.t;
  mutable b_total : int;
  w_index : int array;
  w_alarms : int array;
  w_severity : int array;
  w_entropy : FA.t;
  w_ewma : FA.t;
  w_cusum : FA.t;
  w_r : FA.t;
  mutable w_total : int;
  tr_window : int array;
  tr_period : int array;
  tr_bit : int array;
  tr_from : int array;
  tr_to : int array;
  mutable tr_total : int;
  mutable armed : bool;
  mutable countdown : int;
  mutable trig_direction : string;
  mutable trig_from : int;
  mutable trig_to : int;
  mutable trig_period : int;
  mutable trig_bit : int;
  mutable trig_window : int;
  mutable trig_reasons : (string * string) list;
  mutable frozen : incident list; (* newest first *)
  mutable n_frozen : int;
}

let create ?(config = default_config) ~provenance () =
  if config.jitter_capacity < 1 then
    invalid_arg "Flight_recorder.create: jitter_capacity < 1";
  if config.bit_capacity < 1 then
    invalid_arg "Flight_recorder.create: bit_capacity < 1";
  if config.window_capacity < 1 then
    invalid_arg "Flight_recorder.create: window_capacity < 1";
  if config.post_windows < 0 then
    invalid_arg "Flight_recorder.create: post_windows < 0";
  if config.max_incidents < 1 then
    invalid_arg "Flight_recorder.create: max_incidents < 1";
  {
    cfg = config;
    prov = provenance;
    mon_cfg = T.Json.Null;
    jr = FA.make config.jitter_capacity 0.0;
    j_total = 0;
    br = Bytes.make config.bit_capacity '0';
    b_total = 0;
    w_index = Array.make config.window_capacity 0;
    w_alarms = Array.make config.window_capacity 0;
    w_severity = Array.make config.window_capacity 0;
    w_entropy = FA.make config.window_capacity 0.0;
    w_ewma = FA.make config.window_capacity 0.0;
    w_cusum = FA.make config.window_capacity 0.0;
    w_r = FA.make config.window_capacity 0.0;
    w_total = 0;
    tr_window = Array.make config.window_capacity 0;
    tr_period = Array.make config.window_capacity 0;
    tr_bit = Array.make config.window_capacity 0;
    tr_from = Array.make config.window_capacity 0;
    tr_to = Array.make config.window_capacity 0;
    tr_total = 0;
    armed = false;
    countdown = 0;
    trig_direction = "";
    trig_from = 0;
    trig_to = 0;
    trig_period = 0;
    trig_bit = 0;
    trig_window = 0;
    trig_reasons = [];
    frozen = [];
    n_frozen = 0;
  }

let set_monitor_config t j = t.mon_cfg <- j

let record_jitter t x =
  FA.unsafe_set t.jr (t.j_total mod t.cfg.jitter_capacity) x;
  t.j_total <- t.j_total + 1

(* Both chunk records: only the newest [capacity] values of a long
   chunk can survive, so the rest are skipped; what lands is at most two
   contiguous ranges of the ring, and the ring ends in the state a
   per-value push leaves. *)
let record_jitter_chunk t buf ~len =
  if len < 0 || len > FA.length buf then
    invalid_arg "Flight_recorder.record_jitter_chunk: len";
  let cap = t.cfg.jitter_capacity in
  let skip = if len > cap then len - cap else 0 in
  let n = len - skip in
  let head = (t.j_total + skip) mod cap in
  let first = if n < cap - head then n else cap - head in
  FA.blit buf skip t.jr head first;
  FA.blit buf (skip + first) t.jr 0 (n - first);
  t.j_total <- t.j_total + len

let record_bits t bs ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length bs - len then
    invalid_arg "Flight_recorder.record_bits: range";
  let cap = t.cfg.bit_capacity in
  let skip = if len > cap then len - cap else 0 in
  let n = len - skip in
  let head = (t.b_total + skip) mod cap in
  let first = if n < cap - head then n else cap - head in
  let src = pos + skip - head in
  for i = head to head + first - 1 do
    Bytes.unsafe_set t.br i
      (Char.unsafe_chr (48 + Bool.to_int (Array.unsafe_get bs (src + i))))
  done;
  let src = pos + skip + first in
  for i = 0 to n - first - 1 do
    Bytes.unsafe_set t.br i
      (Char.unsafe_chr (48 + Bool.to_int (Array.unsafe_get bs (src + i))))
  done;
  t.b_total <- t.b_total + len

let record_window t ~index ~alarms ~min_entropy ~ewma ~cusum_pos ~r_n ~severity
    =
  let slot = t.w_total mod t.cfg.window_capacity in
  t.w_index.(slot) <- index;
  t.w_alarms.(slot) <- alarms;
  t.w_severity.(slot) <- severity;
  FA.unsafe_set t.w_entropy slot min_entropy;
  FA.unsafe_set t.w_ewma slot ewma;
  FA.unsafe_set t.w_cusum slot cusum_pos;
  FA.unsafe_set t.w_r slot r_n;
  t.w_total <- t.w_total + 1

let record_transition t ~at_window ~at_period ~at_bit ~severity_from
    ~severity_to =
  let slot = t.tr_total mod t.cfg.window_capacity in
  t.tr_window.(slot) <- at_window;
  t.tr_period.(slot) <- at_period;
  t.tr_bit.(slot) <- at_bit;
  t.tr_from.(slot) <- severity_from;
  t.tr_to.(slot) <- severity_to;
  t.tr_total <- t.tr_total + 1

(* Ring unwrapping (freeze-time only — allocation is fine here). *)

let start_of total cap = total - min total cap

let fa_ring fa total cap =
  let count = min total cap in
  let base = start_of total cap in
  Array.init count (fun i -> FA.get fa ((base + i) mod cap))

let int_ring a total cap =
  let count = min total cap in
  let base = start_of total cap in
  Array.init count (fun i -> a.((base + i) mod cap))

let freeze t =
  let cfg = t.cfg in
  let inc =
    {
      id = t.n_frozen;
      direction = t.trig_direction;
      severity_from = t.trig_from;
      severity_to = t.trig_to;
      at_period = t.trig_period;
      at_bit = t.trig_bit;
      at_window = t.trig_window;
      reasons = t.trig_reasons;
      jitter_start = start_of t.j_total cfg.jitter_capacity;
      jitter = fa_ring t.jr t.j_total cfg.jitter_capacity;
      bit_start = start_of t.b_total cfg.bit_capacity;
      bits =
        (let count = min t.b_total cfg.bit_capacity in
         let base = start_of t.b_total cfg.bit_capacity in
         String.init count (fun i ->
             Bytes.get t.br ((base + i) mod cfg.bit_capacity)));
      window_start = start_of t.w_total cfg.window_capacity;
      iw_index = int_ring t.w_index t.w_total cfg.window_capacity;
      iw_alarms = int_ring t.w_alarms t.w_total cfg.window_capacity;
      iw_severity = int_ring t.w_severity t.w_total cfg.window_capacity;
      iw_entropy = fa_ring t.w_entropy t.w_total cfg.window_capacity;
      iw_ewma = fa_ring t.w_ewma t.w_total cfg.window_capacity;
      iw_cusum = fa_ring t.w_cusum t.w_total cfg.window_capacity;
      iw_r = fa_ring t.w_r t.w_total cfg.window_capacity;
      itr_window = int_ring t.tr_window t.tr_total cfg.window_capacity;
      itr_period = int_ring t.tr_period t.tr_total cfg.window_capacity;
      itr_bit = int_ring t.tr_bit t.tr_total cfg.window_capacity;
      itr_from = int_ring t.tr_from t.tr_total cfg.window_capacity;
      itr_to = int_ring t.tr_to t.tr_total cfg.window_capacity;
    }
  in
  t.frozen <- inc :: t.frozen;
  t.n_frozen <- t.n_frozen + 1;
  t.armed <- false;
  T.Mark.emit "incident.freeze"
    ~args:
      [
        ("id", T.Json.Int inc.id);
        ("direction", T.Json.String inc.direction);
        ("at_window", T.Json.Int inc.at_window);
      ];
  T.Event_log.emit ~kind:"incident"
    [
      ("what", T.Json.String "freeze");
      ("id", T.Json.Int inc.id);
      ("direction", T.Json.String inc.direction);
      ("at_period", T.Json.Int inc.at_period);
      ("at_window", T.Json.Int inc.at_window);
    ]

let note_trigger t ~direction ~severity_from ~severity_to ~at_period ~at_bit
    ~at_window ~reasons =
  if (not t.armed) && t.n_frozen < t.cfg.max_incidents then begin
    t.trig_direction <- direction;
    t.trig_from <- severity_from;
    t.trig_to <- severity_to;
    t.trig_period <- at_period;
    t.trig_bit <- at_bit;
    t.trig_window <- at_window;
    t.trig_reasons <- reasons;
    if t.cfg.post_windows = 0 then freeze t
    else begin
      t.armed <- true;
      t.countdown <- t.cfg.post_windows
    end
  end

let tick_window t =
  if t.armed then begin
    t.countdown <- t.countdown - 1;
    if t.countdown <= 0 then freeze t
  end

let incident_count t = t.n_frozen
let incidents t = List.rev t.frozen
let incident t id = List.find_opt (fun i -> i.id = id) t.frozen
let incident_id i = i.id
let incident_trigger i = (i.direction, i.severity_from, i.severity_to)
let incident_reasons i = i.reasons

let config_json cfg =
  let open T.Json in
  Obj
    [
      ("jitter_capacity", Int cfg.jitter_capacity);
      ("bit_capacity", Int cfg.bit_capacity);
      ("window_capacity", Int cfg.window_capacity);
      ("post_windows", Int cfg.post_windows);
      ("max_incidents", Int cfg.max_incidents);
    ]

let provenance_json p =
  let open T.Json in
  Obj
    [
      ("kind", String p.kind);
      ("workload", String p.workload);
      ("seed", Int p.seed);
      ("divisor", Int p.divisor);
      ("chunk", Int p.chunk);
      ("flicker_block", Int p.flicker_block);
    ]

let trigger_json inc =
  let open T.Json in
  Obj
    [
      ("direction", String inc.direction);
      ("severity_from", Int inc.severity_from);
      ("severity_to", Int inc.severity_to);
      ("at_period", Int inc.at_period);
      ("at_bit", Int inc.at_bit);
      ("at_window", Int inc.at_window);
      ( "reasons",
        List
          (List.map
             (fun (code, detail) ->
               Obj [ ("code", String code); ("detail", String detail) ])
             inc.reasons) );
    ]

let incident_json t inc =
  let open T.Json in
  let window_rows =
    List.init (Array.length inc.iw_index) (fun i ->
        Obj
          [
            ("index", Int inc.iw_index.(i));
            ("alarms", Int inc.iw_alarms.(i));
            ("min_entropy", num inc.iw_entropy.(i));
            ("ewma", num inc.iw_ewma.(i));
            ("cusum_pos", num inc.iw_cusum.(i));
            ("r_n", num inc.iw_r.(i));
            ("severity", Int inc.iw_severity.(i));
          ])
  in
  let transition_rows =
    List.init (Array.length inc.itr_window) (fun i ->
        Obj
          [
            ("window", Int inc.itr_window.(i));
            ("at_period", Int inc.itr_period.(i));
            ("at_bit", Int inc.itr_bit.(i));
            ("from", Int inc.itr_from.(i));
            ("to", Int inc.itr_to.(i));
          ])
  in
  Obj
    [
      ("schema", String "ptrng-incident/1");
      ("id", Int inc.id);
      ("trigger", trigger_json inc);
      ("provenance", provenance_json t.prov);
      ("monitor_config", t.mon_cfg);
      ("recorder", config_json t.cfg);
      ( "capture",
        Obj
          [
            ("jitter_start", Int inc.jitter_start);
            ("jitter", List (Array.to_list (Array.map num inc.jitter)));
            ("bit_start", Int inc.bit_start);
            ("bits", String inc.bits);
            ("window_start", Int inc.window_start);
            ("windows", List window_rows);
            ("transitions", List transition_rows);
          ] );
    ]

let summary_json t inc =
  let open T.Json in
  Obj
    [
      ("schema", String "ptrng-incident-summary/1");
      ("id", Int inc.id);
      ("trigger", trigger_json inc);
      ("workload", String t.prov.workload);
      ("kind", String t.prov.kind);
      ("jitter_start", Int inc.jitter_start);
      ("jitter_samples", Int (Array.length inc.jitter));
      ("bit_start", Int inc.bit_start);
      ("bits", Int (String.length inc.bits));
      ("windows", Int (Array.length inc.iw_index));
      ("transitions", Int (Array.length inc.itr_window));
    ]
