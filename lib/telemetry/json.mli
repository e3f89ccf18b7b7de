(** Minimal JSON tree: just enough for telemetry snapshots, the JSONL
    event log and the bench harness — the container ships no JSON
    library, and the observability layer must not grow dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val num : float -> t
(** [Float], except non-finite values become [Null] (JSON has no NaN). *)

val member : string -> t -> t option
(** First field of that name in an [Obj]; [None] otherwise. *)

val to_float : t -> float option
(** Numeric value of [Int]/[Float]. *)

val to_string : t -> string
(** Compact serialization (no spaces, no trailing newline).  A [Float]
    always prints with a point or an exponent, so it reads back as a
    [Float], never as an [Int]. *)

val to_string_pretty : t -> string
(** Two-space-indented serialization for files meant to be read. *)

val of_string : string -> t
(** Strict parser for the subset this module emits (no exponents in
    keys, no comments, UTF-8 passed through).  Numbers follow RFC
    8259's grammar, so ["+1"], ["01"], ["1."], [".5"] and ["1.e5"] are
    malformed, and a [\u] escape takes exactly four hex digits.  A
    number beyond the float range (["1e999"]) is malformed too: JSON
    has no infinity, and {!to_string} would print it as [null].
    @raise Failure on malformed input. *)
