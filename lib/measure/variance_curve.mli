(** Estimation of the accumulated-jitter variance curve
    [sigma_N^2 = Var(s_N)] over a grid of accumulation lengths N — the
    data behind the paper's Fig. 7. *)

type point = {
  n : int;           (** Accumulation length N. *)
  sigma2 : float;    (** Estimated Var(s_N), s^2. *)
  scaled : float;    (** The paper's plotted quantity f0^2 sigma_N^2. *)
  neff : int;        (** Independent-equivalent sample count
                         (realizations / 2N for overlapping data). *)
  stderr : float;    (** Standard error of [sigma2] from [neff]. *)
}

val log2_grid : n_min:int -> n_max:int -> int array
(** Octave-spaced N values [n_min, 2 n_min, ... <= n_max].
    @raise Invalid_argument unless [0 < n_min <= n_max]. *)

val log_grid : n_min:int -> n_max:int -> per_decade:int -> int array
(** Log-spaced grid with [per_decade] points per decade (deduplicated,
    increasing). *)

val of_jitter :
  ?domains:int ->
  ?overlapping:bool -> f0:float -> ns:int array -> float array -> point array
(** Ideal (quantization-free) estimator from a relative-jitter series.
    Overlapping (default) uses every starting point and divides the
    sample count by 2N for the error estimate; non-overlapping uses
    disjoint realizations.  Grid entries with fewer than 2 realizations
    are skipped.  Each grid entry is an independent task on a
    {!Ptrng_exec.Pool}; the result is bit-identical for every
    [?domains] value. *)

val of_counters :
  f0:float -> ns:int array -> float array -> float array -> point array
(** [of_counters ~f0 ~ns edges1 edges2] is the counter-based estimator
    (paper eq. 12), including real quantization effects, from the two
    oscillators' rising-edge times.  Grid entries are evaluated in
    order on the calling domain. *)

(** Streaming estimator from a relative-jitter stream: feed chunks of
    any size, read {!Jitter_acc.points} at the end.  Realization values
    are bit-identical to {!of_jitter} (same cumulative-sum op
    sequence); the variance uses Welford's recurrence, so [sigma2]
    matches the batch two-pass estimate to rounding (~1e-12 relative).
    Memory is O(2 max N + grid), independent of the stream length. *)
module Jitter_acc : sig
  type t
  (** Accumulator state: a power-of-two ring of cumulative sums plus
      per-N Welford moments.  Not thread-safe. *)

  val create : ?overlapping:bool -> f0:float -> int array -> t
  (** [create ~f0 ns] starts an empty accumulator over grid [ns].
      [overlapping] (default true) matches {!of_jitter}'s realization
      stride. @raise Invalid_argument on non-positive [f0] or grid
      entries, or an empty grid. *)

  val feed : t -> Float.Array.t -> len:int -> unit
  (** [feed t buf ~len] folds [buf.(0 .. len-1)] — the next [len]
      relative-jitter samples — into every grid slot.
      @raise Invalid_argument if [len] exceeds the buffer. *)

  val total : t -> int
  (** Samples folded so far. *)

  val points : t -> point array
  (** The curve from the data so far (the accumulator remains usable).
      Slots with fewer than 2 realizations are skipped, as in
      {!of_jitter}. *)
end

(** Streaming counter-based estimator (paper eq. 12): feed period
    chunks of both oscillators, read {!Counter_acc.points} at the end.
    Edge times and window counts replay the batch
    {!Oscillator.edges_of_periods} + {!of_counters} pipeline exactly
    (same op sequences, same strict-inequality window counting, same
    truncation at the last Osc1 edge), so the s-values are
    bit-identical and [sigma2] agrees to Welford-vs-two-pass
    rounding. *)
module Counter_acc : sig
  type t
  (** Accumulator state: two pending-edge FIFOs, the shared Osc1 edge
      count, and per-N window/Welford state.  Not thread-safe. *)

  val create : f0:float -> ns:int array -> t
  (** [create ~f0 ~ns] starts an empty accumulator over grid [ns].
      @raise Invalid_argument on non-positive [f0] or grid entries, or
      an empty grid. *)

  val feed : t -> p1:Float.Array.t -> p2:Float.Array.t -> len:int -> unit
  (** [feed t ~p1 ~p2 ~len] appends the next [len] periods of each
      oscillator (seconds; both streams advance together).
      @raise Invalid_argument if [len] exceeds either buffer or the
      accumulator is finalized. *)

  val points : t -> point array
  (** Finalizes the stream (drops windows not covered by Osc1 edges,
      like the batch path) and returns the curve.  Further {!feed}
      calls raise; [points] may be called again. *)
end
