(** SP 800-90B §4 continuous health tests (binary).

    The standard's two mandatory on-line tests, designed to catch total
    failures of the noise source with a false-alarm probability of
    [alpha] (2^-30 by default) per evaluation, assuming the claimed
    min-entropy [h] per bit:

    - the {e repetition count test} (RCT) alarms on an impossible run of
      identical samples;
    - the {e adaptive proportion test} (APT) alarms when one value
      dominates a window.

    These complement the paper's proposed thermal-noise test: RCT/APT
    catch gross failures within microseconds, the thermal test verifies
    the entropy *rate* claim itself (slowly).  A flicker-quenched
    oscillator that still wiggles passes RCT/APT — the gap the paper's
    statistic closes. *)

val rct_cutoff : ?alpha_exp:int -> h:float -> unit -> int
(** Repetition cutoff [1 + ceil (alpha_exp / h)] for
    [alpha = 2^-alpha_exp] (default 30).
    @raise Invalid_argument unless [0 < h <= 1]. *)

val apt_cutoff : ?alpha_exp:int -> ?window:int -> h:float -> unit -> int
(** Smallest count C with [P(Bin(window, 2^-h) >= C) <= 2^-alpha_exp]
    (default window 1024), computed from the exact binomial tail. *)

type rct
type apt

val rct_create : cutoff:int -> rct
(** Fresh repetition-count monitor; see {!rct_cutoff}. *)

val rct_feed : rct -> bool -> bool
(** Feed one sample; [true] means ALARM (cutoff reached). The monitor
    keeps running after an alarm. *)

val apt_create : cutoff:int -> window:int -> apt
(** Fresh adaptive-proportion monitor; see {!apt_cutoff}. *)

val apt_feed : apt -> bool -> bool
(** Feed one sample; [true] means ALARM in the window just closed. *)

type monitor
(** A combined continuous monitor: one RCT and one APT over the same
    stream, plus running sample/alarm totals.  Feeding updates the
    [ptrng_sp90b_*] telemetry counters per sample, so a long-running
    consumer (the live {!Ptrng_monitor} subsystem, a future daemon)
    exposes fresh alarm totals without batch boundaries. *)

val monitor_create : cutoff_rct:int -> cutoff_apt:int -> window:int -> monitor
(** Fresh combined monitor from explicit cutoffs; see {!rct_cutoff}
    and {!apt_cutoff}. *)

val monitor_of_entropy :
  ?alpha_exp:int -> ?window:int -> h:float -> unit -> monitor
(** Combined monitor with both cutoffs derived from the claimed
    min-entropy [h] per bit ([alpha_exp] default 30, [window] default
    1024), as SP 800-90B prescribes. *)

val monitor_feed_flags : monitor -> bool -> int
(** Feed one sample through both tests and the telemetry counters.  The
    verdict is an int bitmask — bit 0 set on an RCT alarm, bit 1 on an
    APT alarm — so feeding allocates nothing.  The per-bit reference
    for {!monitor_feed_run}. *)

val monitor_feed_run : monitor -> bool array -> pos:int -> len:int -> int
(** [monitor_feed_run m bs ~pos ~len] feeds [bs.(pos .. pos+len-1)] and
    returns the number of alarms raised (RCT plus APT).  It leaves the
    state, the totals and the telemetry counters exactly as [len] calls
    of {!monitor_feed_flags} would, with no branch on the bit value and
    the counters added once per run.
    @raise Invalid_argument if the range is not inside [bs]. *)

val monitor_samples : monitor -> int
(** Samples fed so far. *)

val monitor_alarms : monitor -> int * int
(** Running [(rct, apt)] alarm totals. *)

val scan : cutoff_rct:int -> cutoff_apt:int -> window:int -> bool array -> int * int
(** Run both monitors over a recorded stream; returns (rct alarms,
    apt alarms).  Thin wrapper over {!monitor_create}/{!monitor_feed_run} —
    the batch and streaming paths are the same code. *)
