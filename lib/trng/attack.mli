(** Non-invasive attack models on the entropy source.

    The frequency-injection attack (Markettos–Moore, paper ref. [3])
    locks the two rings to an injected tone; their relative jitter —
    the entropy source — collapses while each ring keeps oscillating,
    so frequency-counting health tests see nothing.  We model the locked
    pair by scaling the relative phase-noise coefficients. *)

val frequency_injection :
  lock_strength:float -> Ptrng_osc.Pair.t -> Ptrng_osc.Pair.t
(** [frequency_injection ~lock_strength pair] returns an attacked pair:
    relative b_th and b_fl scaled by [1 - lock_strength] and detuning
    collapsed (both rings pulled onto the injected tone).
    [lock_strength] in [0, 1): 0 = no attack, 0.99 = near-total lock.
    @raise Invalid_argument outside [0, 1). *)

val thermal_quench :
  factor:float -> Ptrng_osc.Pair.t -> Ptrng_osc.Pair.t
(** Scale only the thermal coefficient by [factor] (0 < factor <= 1) —
    the stealthiest scenario for total-jitter health tests: flicker
    keeps the measured long-run jitter looking healthy while the
    entropy-bearing thermal noise disappears. *)

(** {1 Attack spec}

    The attacked pair of [repro online], [repro monitor] and incident
    replay; {!to_string} is a ["monitor"] incident's workload. *)

type kind = No_attack | Quench | Inject

type t = private { kind : kind; strength : float }
(** [strength] is in [0, 1), and 0 for [No_attack]. *)

val make : kind -> strength:float -> t
(** @raise Invalid_argument if [strength] is outside [0, 1). *)

val kind_name : kind -> string
(** ["none"], ["quench"] or ["inject"]. *)

val kind_of_string : string -> (kind, string) result
(** Inverse of {!kind_name}; the error names the valid kinds. *)

val strength_of_string : string -> (float, string) result
(** A float in [0, 1); the error names the range. *)

val to_string : t -> string
(** ["none"] or ["<kind>:<strength>"], the strength in the shortest
    [%g] form that reads back exactly: ["quench:0.95"]. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}, bit for bit; never raises. *)

val apply : t -> Ptrng_osc.Pair.t -> Ptrng_osc.Pair.t
(** [Quench] is {!thermal_quench} with [factor = 1 - strength],
    [Inject] is {!frequency_injection} with [lock_strength = strength]. *)
