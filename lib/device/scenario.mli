(** Deterministic environmental and adversarial scenarios.

    A scenario is a named, fully deterministic schedule of the device
    coefficients over the period index [k]: multiplicative profiles on
    the calibrated [(b_th, b_fl, f0)] — step, ramp, sinusoidal drift,
    exponential aging — plus fault injections with onset and duration
    layered on top (thermal quench, supply droop, injected
    deterministic tone, inter-ring coupling).  The faults generalize
    the one-shot static transforms of [Ptrng_trng.Attack] into
    time-parameterized events.

    Scenarios carry no randomness and no per-device state: evaluation
    at index [k] writes the instantaneous multipliers into a mutable
    all-float {!state}, so a streaming simulator
    ({!Ptrng_osc.Pair.stream} with [~scenario]) can query the schedule
    once per sample without allocating. *)

type profile =
  | Const of float  (** Fixed multiplier; [Const 1.0] is the identity. *)
  | Step of { at : int; before : float; after : float }
      (** [before] for [k < at], [after] from [at] on. *)
  | Ramp of { start : int; stop : int; from_ : float; to_ : float }
      (** Linear from [from_] at [start] to [to_] at [stop], clamped
          outside. *)
  | Sine of { period : int; mean : float; amplitude : float; phase : float }
      (** [mean + amplitude sin(2 pi k / period + phase)] — thermal or
          supply cycling. *)
  | Drift of { rate : float }
      (** [exp (rate k)] — exponential aging drift per period. *)
(** A multiplicative profile over the period index, applied to one
    calibrated coefficient. *)

type fault =
  | Thermal_quench of { onset : int; duration : int; factor : float }
      (** Multiply b_th by [factor] in (0,1] while active — the
          stealthy loss of entropy-bearing thermal noise. *)
  | Supply_droop of { onset : int; duration : int; depth : float }
      (** Scale f0 by [1 - depth] and b_th by [1/(1 - depth)] while
          active: a sagging rail slows the ring and makes it noisier. *)
  | Tone_injection of {
      onset : int;
      duration : int;
      freq : float;  (** Cycles per period, in (0, 0.5]. *)
      amplitude : float;  (** Peak, as a fraction of the nominal period. *)
    }
      (** Add [amplitude sin(2 pi freq (k - onset))] nominal periods of
          deterministic jitter to the sampled ring while active. *)
  | Coupling of { onset : int; duration : int; strength : float }
      (** Pull both rings' frequencies and jitter toward their common
          mean with weight [strength] in [0,1) while active — the
          Markettos-Moore injection-locking attack, time-resolved. *)
(** A fault injection: active for [onset <= k < onset + duration]. *)

val forever : int
(** [max_int] — a duration that never ends. *)

type t
(** One named scenario. *)

val make :
  ?b_th:profile ->
  ?b_fl:profile ->
  ?f0:profile ->
  ?faults:fault list ->
  name:string ->
  description:string ->
  unit ->
  t
(** Build a scenario; omitted profiles default to [Const 1.0] and
    [faults] to none.
    @raise Invalid_argument on a non-positive profile level, a Sine
    with [amplitude >= mean], a fault parameter outside its range, or
    a negative onset. *)

val name : t -> string
(** The scenario's registry name. *)

val description : t -> string
(** One-line human description. *)


val eval_profile : profile -> int -> float
(** The profile's multiplier at period index [k]. *)

val onset : t -> int option
(** The first period index at which the schedule departs from the
    calibrated device — the earliest fault onset or non-identity
    profile start — or [None] for a calm scenario.  Detection latency
    is measured from here. *)

type state = {
  mutable th_mult : float;  (** Instantaneous multiplier on b_th. *)
  mutable fl_mult : float;  (** Instantaneous multiplier on b_fl. *)
  mutable f0_mult : float;  (** Instantaneous multiplier on f0. *)
  mutable coupling : float; (** Inter-ring coupling strength, [0,1). *)
  mutable tone : float;     (** Additive tone, fraction of nominal period. *)
}
(** The evaluated schedule at one period index — all-float and
    caller-owned, so per-sample evaluation allocates nothing. *)

val state : unit -> state
(** A fresh identity state. *)

val eval : t -> int -> state -> unit
(** [eval t k st] overwrites [st] with the schedule at period index
    [k]: profiles first, then every active fault folded in. *)
