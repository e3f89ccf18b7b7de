(** JSONL structured-event sink: one JSON object per line, appended as
    events happen, so a long Monte-Carlo run can be watched mid-flight
    with [tail -f].  At most one log is open per process. *)

val open_ : string -> unit
(** Open (truncate) [path] as the process event log.  Closes any
    previously open log. *)

val close : unit -> unit
(** Flush and close the current log; no-op when none is open. *)


val emit : ?kind:string -> (string * Json.t) list -> unit
(** Append one event line [{"ev": kind, "t": <seconds>, ...fields}].
    Dropped silently when no log is open or telemetry is disabled. *)
