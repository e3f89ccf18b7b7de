(** The random generator of this repository: xoshiro256++
    ({!Xoshiro256}), seeded through {!Splitmix64}.

    All stochastic code draws randomness through this module, so every
    simulation is reproducible from a seed. *)

type t
(** A generator: the mutable xoshiro256++ state. *)

val create : seed:int64 -> unit -> t
(** [create ~seed ()] builds a seeded generator. *)

val bits64 : t -> int64
(** 64 uniform pseudo-random bits. *)

val float : t -> float
(** Uniform float in [0, 1), 53-bit resolution. *)

val float_pos : t -> float
(** Uniform float in (0, 1] — never 0, safe as a [log] argument. *)

val float_range : t -> lo:float -> hi:float -> float
(** Uniform float in [lo, hi). @raise Invalid_argument if [lo >= hi]. *)

val int_below : t -> int -> int
(** [int_below t n] is uniform on [0, n-1] without modulo bias.
    @raise Invalid_argument if [n <= 0]. *)

val bool : t -> bool
(** A fair coin flip. *)

val xoshiro_state : t -> Xoshiro256.t
(** The underlying {!Xoshiro256} state.  This is the hook for bulk
    samplers ({!Gaussian.fill_fa}) that run the recurrence on unboxed
    locals instead of paying a boxed [int64] round trip per draw;
    mutating the returned state advances [t]'s stream, exactly as
    drawing from [t] would. *)

val split : t -> t
(** [split t] returns a generator seeded from [t]'s stream, for
    independent substreams (e.g. one per simulated oscillator). *)

val derive_seed : int64 -> int -> int64
(** [derive_seed root index] is a stateless, scrambled child seed for
    substream [index] of the root seed — the basis of deterministic
    parallel RNG streams: chunk [index] receives the same stream
    regardless of which domain (or how many domains) runs it.
    @raise Invalid_argument on negative [index]. *)

val child : root:int64 -> index:int -> unit -> t
(** [child ~root ~index ()] is [create ~seed:(derive_seed root index) ()]:
    the generator for substream [index] of [root]. *)
