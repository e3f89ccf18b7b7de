(** Streaming estimate of the live independence ratio r_N.

    The batch pipeline measures the variance curve sigma_N^2 over a
    recorded trace ({!Ptrng_measure.S_process} /
    {!Ptrng_measure.Variance_curve}), fits
    [f0^2 sigma_N^2 = a N + b N^2] and reads the thermal fraction
    [r_N = a N / (a N + b N^2) = k / (k + N)] with [k = a/b] — the
    paper's 5354.  This module is the streaming form: feed per-period
    relative jitter as it is produced and keep, per grid length N, a
    sliding window of S_N realizations built exactly like the batch
    statistic (second difference over 2N consecutive periods, disjoint
    realizations), so the live fit is directly comparable to the batch
    one and to the closed form.

    A realization at accumulation length N consumes 2N samples, so the
    largest grid entry dominates the warm-up time: with the default
    grid and window, the estimate is ready after roughly
    [2 * max ns * realizations] fed periods. *)

type t
(** One streaming estimator. *)

val create :
  ?ns:int array -> ?realizations:int -> ?min_realizations:int ->
  f0:float -> unit -> t
(** [ns] (default [[|16; 64; 256; 1024|]]) is the accumulation-length
    grid; [realizations] (default 128) the per-N sliding-window
    capacity; [min_realizations] (default 16) how many realizations an
    N needs before its point enters the fit.
    @raise Invalid_argument if the grid is empty or non-increasing, if
    any N is non-positive, if [f0 <= 0], or unless
    [2 <= min_realizations <= realizations]. *)

val feed : t -> float -> unit
(** Feed one per-period relative jitter sample (seconds).  Non-finite
    samples are dropped. *)

val feed_many : t -> Float.Array.t -> len:int -> unit
(** [feed_many t buf ~len] feeds [buf.(0 .. len-1)] — the allocation-free
    chunk entry point for streamed pipelines ({!Ptrng_osc.Pair.fill}
    into a reused buffer, then here).
    @raise Invalid_argument if [len] exceeds the buffer. *)

val samples : t -> int
(** Jitter samples fed so far. *)

val points : t -> Ptrng_measure.Variance_curve.point array
(** Current sliding-window variance-curve points, one per grid N with
    at least [min_realizations] realizations ([neff] = realizations in
    the window, [stderr] as in the batch estimator). *)

type estimate = {
  fit : Ptrng_measure.Fit.t;     (** Weighted fit over {!points}. *)
  k : float;                     (** [a/b]; [infinity] when no flicker
                                     is resolvable ([b <= 0]). *)
  threshold_n : int;             (** Largest N with
                                     [r_n >= confidence] at the fitted
                                     k; [max_int] when [k] is
                                     infinite. *)
}
(** One live fit of the independence regime. *)

val estimate : ?confidence:float -> t -> estimate option
(** Fit the current points ([confidence] default 0.95).  [None] until
    every grid length (and at least 3) is ready, or while the fitted
    thermal coefficient is non-positive — flicker is pinned by the
    largest N, so a small-N prefix alone supports no regime
    statement. *)

val r_of_fit : Ptrng_measure.Fit.t -> int -> float
(** Thermal fraction [a N / (a N + b N^2)] of a fitted curve at
    accumulation length N, clamped to [0, 1] — equals the closed form
    [k/(k+N)] of {!Ptrng_measure.Thermal_extract.r_n}. *)

