(** Section gates of a [ptrng-bench/2] report: one {!row} per gated
    section, run by [check_bench].  Gating a new section means adding a
    row.  See docs/PROFILING.md. *)

module Json = Ptrng_telemetry.Json

type requirement =
  | Always  (** every report, committed snapshots included *)
  | Fresh_only  (** only a report checked with [fresh] *)

type row = {
  section : string;  (** the section's ["name"] *)
  required : requirement;
  gate : fresh:bool -> Json.t -> string;
      (** Checks the section object and returns a one-line summary;
          raises on rejection — call it through {!check}.  Under
          [fresh], fig7 must stay within 165 allocated bytes per
          simulated period and a skipped lint run is rejected. *)
  bad : Json.t;  (** a section [gate ~fresh:true] must reject *)
}

val rows : row list
(** fig7, extraction, noise_synth, variance_curve ([Always]); monitor,
    scenario, postmortem, lint ([Fresh_only]). *)

val check : fresh:bool -> Json.t -> (string list, string) result
(** Every row over a report's [sections]: a present section is always
    gated, a missing one fails when it is [Always] or [fresh] is set.
    [Ok] carries one summary line per row; a rejected section's error
    starts with ["section <name>: "]. *)
