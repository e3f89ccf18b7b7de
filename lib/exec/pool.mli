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

    Domain-count resolution, in priority order: the [?domains] argument,
    {!set_default} (the [--domains] CLI flag), the [PTRNG_DOMAINS]
    environment variable, [Domain.recommended_domain_count ()].  Inside
    a worker domain every section resolves to 1 — nested parallelism
    runs sequentially instead of oversubscribing.

    Exceptions raised by a task abort the section: remaining tasks are
    skipped, domains are joined, and the first captured exception is
    re-raised (with its backtrace) on the calling domain.

    See docs/PARALLELISM.md for the design rationale. *)

val default_chunk : int
(** Chunk granularity (samples) of {!parallel_init_floats} — fixed, so
    chunk boundaries never depend on the domain count. *)

val max_domains : int
(** Hard upper bound on the domain count (64). *)

val set_default : int option -> unit
(** Install (or with [None] remove) a process-wide domain-count
    override; used by the [--domains] CLI flags.
    @raise Invalid_argument if the count is < 1. *)

val available : unit -> int
(** The domain count a section gets when [?domains] is omitted:
    {!set_default} override, else [PTRNG_DOMAINS], else
    [Domain.recommended_domain_count ()], clamped to [1, max_domains].
    Malformed [PTRNG_DOMAINS] values are ignored. *)

val resolve : ?domains:int -> unit -> int
(** The domain count a section with this [?domains] argument will use
    ([1] inside a worker domain).
    @raise Invalid_argument if [domains < 1]. *)

val worker_tasks : unit -> int array
(** Cumulative tasks started per worker slot across all sections so
    far (spawned workers are slots [0 .. workers-2], the calling
    domain the last slot), trimmed to the highest active slot.  Only
    counted while telemetry is enabled; the runtime profiler
    ({!Ptrng_telemetry.Runtime_profile}) samples this into
    [ptrng_exec_worker<i>_tasks] gauges and Perfetto counter
    tracks. *)

val run_tasks : domains:int -> n_tasks:int -> (int -> unit) -> unit
(** [run_tasks ~domains ~n_tasks task] runs [task 0 .. task (n_tasks-1)]
    on [min domains n_tasks] domains.  The building block under the
    combinators below; [task] must only write to disjoint state per
    index.  @raise Invalid_argument if [n_tasks < 0]. *)

val parallel_map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Like [Array.map]; [f] runs on worker domains in any order, results
    are in input order. *)

val parallel_mapi : ?domains:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Like [Array.mapi]; same ordering guarantees as {!parallel_map}. *)

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
    [rng], as in {!parallel_init_floats}. *)
