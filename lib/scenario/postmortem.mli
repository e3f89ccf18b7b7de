(** Post-mortem replay of flight-recorder incident bundles.

    An incident bundle ([ptrng-incident/1], see docs/POSTMORTEM.md) is
    wall-clock-free and records everything needed to re-create its run:
    the PRNG seed, the workload, the chunking discipline and the full
    monitor/recorder configuration.  This module re-simulates a loaded
    bundle two ways:

    - {!segment_check} — the cheap path: rebuild the stream, fast
      forward with {!Ptrng_osc.Pair.skip} to the recorded jitter-ring
      position, refill the captured segment and compare every raw
      jitter sample bit for bit;
    - {!replay} — the full path: re-run the identical pipeline from
      the seed until the recorder freezes the same incident id again,
      and return the replayed bundle, which must serialize to the
      byte-identical JSON (detector trajectory, verdict transitions
      and all) under any [PTRNG_DOMAINS].

    Supported provenance kinds: ["scenario"] (workload is a
    {!Registry} name) and ["monitor"] ([repro monitor] runs; workload
    is a {!Ptrng_trng.Attack.to_string} spec such as ["quench:0.95"]).
    Both replay through {!Runner.step}, as the original run did. *)

type verdict = {
  id : int;               (** Incident id from the bundle. *)
  kind : string;          (** Provenance kind. *)
  workload : string;      (** Provenance workload. *)
  segment_match : bool;   (** Skip-based raw-segment check passed. *)
  bundle_match : bool;    (** Full replay serialized byte-identically. *)
  replayed : Ptrng_telemetry.Json.t option;
                          (** The replayed bundle, when the replay froze one. *)
  errors : string list;   (** Why a check failed or could not run. *)
}
(** Outcome of {!verify}.  The replay contract holds iff
    [segment_match && bundle_match]. *)

val load : string -> (Ptrng_telemetry.Json.t, string) result
(** Read and parse an incident bundle from a file, checking the
    schema tag. *)

val segment_check : Ptrng_telemetry.Json.t -> (bool, string) result
(** Skip-and-refill verification of the captured raw jitter segment. *)

val replay : Ptrng_telemetry.Json.t -> (Ptrng_telemetry.Json.t, string) result
(** Deterministic full re-run; returns the freshly frozen bundle for
    the same incident id.  [Error] when the workload is unknown, the
    configuration does not parse (a [divisor], [chunk] or
    [flicker_block] below 1 included), or the replay never freezes the
    incident. *)

val verify : Ptrng_telemetry.Json.t -> verdict
(** Run {!segment_check} and {!replay}, comparing the replayed bundle
    byte-for-byte against the loaded one. *)

val timeline : ?color:bool -> Ptrng_telemetry.Json.t -> string
(** Annotated ANSI timeline of the captured context: sparklines of the
    r_N / min-entropy / alarm trajectories, a severity strip with the
    trigger marked, and the recorded verdict transitions.  [color]
    (default true) enables ANSI colors. *)

val report_json : file:string -> verdict -> Ptrng_telemetry.Json.t
(** Machine-readable outcome, schema ["ptrng-postmortem/1"]
    (wall-clock-free). *)
