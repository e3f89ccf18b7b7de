(** Splitmix64 pseudo-random generator (Steele, Lea, Flood 2014).

    A tiny, fast, well-distributed 64-bit generator.  Its main role in
    this library is to expand a single user seed into the larger state
    vector of {!Xoshiro256} (the seeding procedure recommended by the
    xoshiro authors) and to derive child seeds ({!Rng.derive_seed}). *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] builds a generator from any 64-bit seed (including 0). *)

val next : t -> int64
(** [next t] returns 64 fresh pseudo-random bits and advances the state. *)
