(** Epsilon-based float comparison helpers.

    Exact float equality ([=] on floats) is flagged by ptrng-lint rule
    R2 in the measurement/model layers: it silently turns into a
    tolerance bug the moment a value arrives through one more
    arithmetic step.  These helpers make the intended tolerance
    explicit.  All predicates return [false] for NaN operands (every
    comparison with NaN is false), so callers must handle non-finite
    inputs separately when they can occur. *)

val default_eps : float
(** [1e-12] — absolute tolerance used when [?eps] is omitted. *)

val near_zero : ?eps:float -> float -> bool
(** [near_zero x] is [Float.abs x < eps].  Use instead of [x = 0.0]
    guards in front of divisions or degenerate-case dispatches: values
    small enough to underflow downstream are handled like zero instead
    of producing inf/NaN. *)
