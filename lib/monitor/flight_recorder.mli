(** The black-box flight recorder.

    A set of preallocated ring buffers that continuously capture the
    recent past of a running monitor — raw jitter samples, sampled
    bits, per-window detector statistics and verdict transitions — at
    zero allocation per sample.  When the verdict escalates (or the
    fail-safe grants a de-escalation) the recorder arms, keeps
    capturing for a few more windows of post-trigger context, and then
    freezes the rings into a wall-clock-free [ptrng-incident/1] JSON
    bundle that can be replayed bit-identically offline from the
    recorded seed and stream position (see docs/POSTMORTEM.md).

    The recorder never drives the monitor: {!Monitor} calls the
    [record_*]/[note_*]/[tick_window] hooks under its own lock, so a
    recorder attached to a monitor needs no locking of its own.
    Everything stored is data-driven (stream positions, window
    indices, detector statistics) — no timestamps — which is what
    makes the frozen bundle deterministic under replay. *)

type config = {
  jitter_capacity : int; (** Raw jitter samples kept (ring). *)
  bit_capacity : int;    (** Sampled bits kept (ring). *)
  window_capacity : int; (** Per-window statistic rows kept (ring). *)
  post_windows : int;    (** Windows captured after a trigger before freezing. *)
  max_incidents : int;   (** Frozen bundles retained; later triggers are dropped. *)
}

val default_config : config
(** 8192 jitter samples, 2048 bits, 64 window rows, 4 post-trigger
    windows, at most 8 incidents. *)

type provenance = {
  kind : string;          (** ["scenario"] or ["monitor"]. *)
  workload : string;      (** Scenario name, or the attack spec string. *)
  seed : int;             (** RNG seed the run was started from. *)
  divisor : int;          (** Sampler divisor (periods per bit). *)
  chunk : int;            (** Producer chunk length (periods). *)
  flicker_block : int;    (** Flicker-noise block length of the sources. *)
}
(** Everything needed to rebuild the exact stream: replay re-creates
    the sources from [seed], skips to the captured position and feeds
    the monitor with the same [chunk] discipline. *)

type incident
(** One frozen pre/post-context bundle. *)

type t
(** One recorder. *)

val create : ?config:config -> provenance:provenance -> unit -> t
(** Fresh recorder; all rings preallocated here.
    @raise Invalid_argument if any capacity is below 1 or
    [post_windows] is negative. *)

val set_monitor_config : t -> Ptrng_telemetry.Json.t -> unit
(** Store the monitor's configuration (as produced by
    [Monitor.config_json]) for embedding in incident bundles. *)

(** {1 Capture hooks}

    Called by the monitor on its hot paths; none of these allocate. *)

val record_jitter : t -> float -> unit
(** Push one raw jitter sample into the jitter ring. *)

val record_jitter_chunk : t -> floatarray -> len:int -> unit
(** Push [buf.(0 .. len-1)] into the jitter ring, as at most two blits.
    The ring ends in the state [len] calls of {!record_jitter} leave. *)

val record_bits : t -> bool array -> pos:int -> len:int -> unit
(** Push [bs.(pos .. pos+len-1)] into the bit ring.
    @raise Invalid_argument if the range is not inside [bs]. *)

val record_window :
  t ->
  index:int ->
  alarms:int ->
  min_entropy:float ->
  ewma:float ->
  cusum_pos:float ->
  r_n:float ->
  severity:int ->
  unit
(** Push one closed window's statistics row into the window ring. *)

val record_transition :
  t ->
  at_window:int ->
  at_period:int ->
  at_bit:int ->
  severity_from:int ->
  severity_to:int ->
  unit
(** Push one verdict transition into the transition ring (kept across
    incidents, so a bundle shows the transitions leading up to its
    trigger). *)

(** {1 Trigger state machine} *)

val note_trigger :
  t ->
  direction:string ->
  severity_from:int ->
  severity_to:int ->
  at_period:int ->
  at_bit:int ->
  at_window:int ->
  reasons:(string * string) list ->
  unit
(** Arm the capture: after {!config}[.post_windows] more
    {!tick_window} calls the rings freeze into an incident.  A note
    while already armed, or once [max_incidents] bundles exist, is
    ignored (the transition itself is still in the transition ring).
    [direction] is ["escalation"] or ["recovery"];
    [reasons] are the verdict's [(code, detail)] pairs. *)

val tick_window : t -> unit
(** Advance the post-trigger countdown by one closed window; freezes
    the incident when it reaches zero. *)

(** {1 Reading incidents} *)

val incident_count : t -> int
(** Number of frozen bundles retained so far. *)

val incidents : t -> incident list
(** Frozen bundles, oldest first; ids are 0, 1, ... in freeze order. *)

val incident : t -> int -> incident option
(** Bundle by id. *)

val incident_id : incident -> int
(** The bundle's id (its position in freeze order). *)

val incident_trigger : incident -> string * int * int
(** [(direction, severity_from, severity_to)]. *)

val incident_reasons : incident -> (string * string) list
(** The verdict's [(code, detail)] reasons at the trigger. *)

val incident_json : t -> incident -> Ptrng_telemetry.Json.t
(** The full wall-clock-free [ptrng-incident/1] bundle: trigger,
    provenance, monitor and recorder configuration, and the captured
    jitter/bit/window/transition context. *)

val summary_json : t -> incident -> Ptrng_telemetry.Json.t
(** A small header for listings ([GET /incidents], scenario reports):
    id, trigger, positions and capture sizes — no sample payloads. *)
