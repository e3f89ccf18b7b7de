(** The rule registry.  New rules register here (and only here). *)

val all : Rule.t list
(** R1..R5 and R7..R9, in id order; the retired id R6 is not reused. *)

val find : string -> Rule.t option
(** Lookup by id, case-insensitive. *)

val select : string -> (Rule.t list, string) result
(** Parse a [--rules] argument: comma-separated ids (["R1,R3"]) or
    ["all"].  Unknown ids are an error listing the known ones. *)
