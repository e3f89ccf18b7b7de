(** Incremental AIS31-style online test.

    AIS31 deployments run the monobit (T1) test continuously on every
    block of internal random numbers — the "online test" of a PTG.2
    generator.  {!Procedure_a.t1_monobit} is the batch form over a
    recorded 20000-bit block; this module is the streaming form: feed
    bits as they are produced, get one verdict per completed block,
    with running block/alarm totals exported through the
    [ptrng_ais31_online_*] telemetry counters.  The live
    {!Ptrng_monitor} subsystem feeds its control charts from these
    per-block verdicts.

    Bounds generalise the AIS31 reference interval: a block of [w]
    bits alarms when the ones count leaves
    [w/2 +- z sqrt(w)/2] with [z] the two-sided normal quantile at
    [alpha = 2^-alpha_exp].  The defaults ([w = 20000],
    [alpha_exp = 20]) reproduce AIS31's published T1 interval
    (9654, 10346) to within one count. *)

type t
(** Streaming monobit monitor. *)

val create : ?block_bits:int -> ?alpha_exp:int -> unit -> t
(** Fresh monitor.  [block_bits] defaults to
    {!Procedure_a.block_bits} (20000); smaller blocks react faster at
    a weaker per-block significance.  [alpha_exp] (default 20) sets
    the two-sided false-alarm probability [2^-alpha_exp] per block.
    @raise Invalid_argument if [block_bits < 64] or [alpha_exp <= 0]. *)

val feed_flag : t -> bool -> int
(** Feed one bit.  The verdict is an int — [-1] mid-block, [0] when
    this bit completed a block that passed, [1] when the block's ones
    count left its pass interval — so feeding allocates nothing.  The per-bit
    reference for {!feed_run}. *)

val feed_run : t -> bool array -> pos:int -> len:int -> int
(** [feed_run t bs ~pos ~len] feeds [bs.(pos .. pos+len-1)] and returns
    the number of blocks it completed that alarmed.  It leaves the state
    and the telemetry counters exactly as [len] calls of {!feed_flag}
    would, with no branch on the bit value.
    @raise Invalid_argument if the range is not inside [bs]. *)

val blocks : t -> int
(** Completed blocks so far. *)

val alarms : t -> int
(** Blocks that alarmed so far. *)

val scan : t -> bool array -> int
(** Feed a recorded stream, returning the number of alarms it raised —
    the batch path is the same code as the streaming one. *)
