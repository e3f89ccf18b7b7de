(** Domain-based fork-join work pool with deterministic RNG streams.

    Every combinator is a {e fork-join section}: worker domains are
    spawned, pull task indices from a shared counter, write results
    into index-addressed slots and are joined before the call returns.
    Scheduling is work-stealing and therefore nondeterministic, but
    results are assembled by index, so every combinator returns {b bit
    identical} output regardless of the domain count — including the
    1-domain sequential fallback.  Randomized workloads keep that
    guarantee through {!Ptrng_prng.Rng.derive_seed}: work is cut into
    fixed-size chunks (independent of the domain count) and chunk [i]
    draws from a child generator derived from one root seed and [i].

    A section's domain count is decided when it starts, first match
    wins: [1] if the section runs inside a worker domain of another
    section (nested parallelism runs sequentially instead of
    oversubscribing); else the [?domains] argument; else {!available}
    ({!set_default}, then [PTRNG_DOMAINS], then
    [Domain.recommended_domain_count ()]).  Counts are clamped to
    [1, 64] and capped by the section's task count.  A section that
    runs on one domain does not mark its tasks as workers, so a section
    nested in it resolves on its own.  Every combinator raises
    [Invalid_argument] when given [domains < 1] outside a worker.

    Exceptions raised by a task abort the section: remaining tasks are
    skipped, domains are joined, and the first captured exception is
    re-raised (with its backtrace) on the calling domain.

    See docs/PARALLELISM.md for the design rationale and for which
    call sites run on the pool. *)

val default_chunk : int
(** Chunk granularity (samples) of {!parallel_init_floats} — fixed, so
    chunk boundaries never depend on the domain count. *)

val set_default : int option -> unit
(** Install (or with [None] remove) a process-wide domain-count
    override; used by the [--domains] CLI flags.
    @raise Invalid_argument if the count is < 1. *)

val available : unit -> int
(** The domain count a section gets when [?domains] is omitted:
    {!set_default} override, else [PTRNG_DOMAINS], else
    [Domain.recommended_domain_count ()], clamped to [1, 64].
    Malformed [PTRNG_DOMAINS] values are ignored. *)

val worker_tasks : unit -> int array
(** Cumulative tasks started per worker slot across all sections so
    far (spawned workers are slots [0 .. workers-2], the calling
    domain the last slot), trimmed to the highest active slot.  Only
    counted while telemetry is enabled; the runtime profiler
    ({!Ptrng_telemetry.Runtime_profile}) samples this into
    [ptrng_exec_worker<i>_tasks] gauges and Perfetto counter
    tracks. *)

val parallel_map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Like [Array.map]; [f] runs on worker domains in any order, results
    are in input order. *)

val parallel_filter_map : ?domains:int -> ('a -> 'b option) -> 'a array -> 'b array
(** Like [Array.map] followed by dropping [None]s; kept in input
    order. *)

val parallel_init_floats :
  ?domains:int ->
  ?chunk:int ->
  rng:Ptrng_prng.Rng.t ->
  fill:(Ptrng_prng.Rng.t -> offset:int -> len:int -> float array -> unit) ->
  int ->
  float array
(** [parallel_init_floats ~rng ~fill n] builds an [n]-float array in
    fixed-size chunks: one 64-bit root is drawn from [rng] (advancing
    it by exactly one draw, domain-independent), and chunk [i] calls
    [fill child ~offset ~len out] with a child generator derived from
    the root and [i].  [fill] must write exactly
    [out.(offset .. offset+len-1)].  Bit-identical for every domain
    count as long as [chunk] (default {!default_chunk}) is unchanged.
    Returns [[||]] when [n = 0].
    @raise Invalid_argument if [n < 0] or [chunk <= 0]. *)

val parallel_map_streams :
  ?domains:int ->
  rng:Ptrng_prng.Rng.t ->
  (int -> Ptrng_prng.Rng.t -> 'a) ->
  int ->
  'a array
(** [parallel_map_streams ~rng f n] runs [f i child_i] for
    [i = 0 .. n-1] in parallel, each with its own derived generator —
    the Monte-Carlo shape (one task per replicate).  One root draw from
    [rng], as in {!parallel_init_floats}.
    @raise Invalid_argument if [n < 0]. *)
