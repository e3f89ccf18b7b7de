(** Process-global metric registry.

    Telemetry is OFF by default: every instrumentation site guards on
    {!on}, so a disabled build pays one boolean load per event and the
    sinks see an empty registry.  Naming scheme: [ptrng_<lib>_<name>],
    with Prometheus-style [_total] suffix for counters and base-unit
    suffixes ([_seconds], [_bytes]) for histograms — see
    docs/OBSERVABILITY.md.

    Metric updates are domain-safe: counters are atomic, histogram
    observations are serialized per histogram, and gauge stores are
    word-sized last-write-wins — instrumented code may run inside
    [Ptrng_exec] worker domains without losing events (see
    docs/PARALLELISM.md). *)

val on : bool ref
(** Fast-path flag.  Mutate only through {!enable}/{!disable}. *)

val enable : unit -> unit
(** Turn telemetry on. *)

val disable : unit -> unit
(** Turn telemetry off; instrumentation sites become no-ops. *)

val reset : unit -> unit
(** Zero every registered metric (values, not registrations). *)

val clear : unit -> unit
(** Drop all registrations — for tests; live handles created before
    [clear] keep counting into detached metrics and a later [v] with
    the same name returns a fresh handle. *)

module Counter : sig
  type t

  val v : ?help:string -> string -> t
  (** Register (or look up) the counter [name].  Idempotent: the same
      name always yields the same handle. *)

  val add : t -> int -> unit
  (** [add c n] adds [n].  No-op unless telemetry is enabled; the
      allocation-free spelling for hot callers (no option at the call
      site).  @raise Invalid_argument on negative [n]. *)

  val incr : ?by:int -> t -> unit
  (** No-op unless telemetry is enabled.  [by] defaults to 1.
      @raise Invalid_argument on negative [by]. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val v : ?help:string -> string -> t

  val set : t -> float -> unit
  (** No-op unless telemetry is enabled. *)
end

module Hist : sig
  type t

  val v :
    ?help:string ->
    ?lo:float ->
    ?hi:float ->
    ?buckets_per_decade:int ->
    string ->
    t
  (** Bucket parameters are fixed at first registration; later [v]
      calls with the same name return the existing histogram. *)

  val observe : t -> float -> unit
  (** No-op unless enabled. *)

  val time : t -> (unit -> 'a) -> 'a
  (** Run the thunk, observing its wall time in seconds (only when
      enabled; the clock is not read otherwise). *)

  val histogram : t -> Histogram.t
end

type metric =
  | Counter of string * string * int                  (** name, help, value *)
  | Gauge of string * string * float
  | Histogram of string * string * Histogram.t

val all : unit -> metric list
(** Registered metrics in registration order; [[]] while disabled, so
    no metric can leak into any sink in no-op mode. *)
