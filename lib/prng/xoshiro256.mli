(** Xoshiro256++ pseudo-random generator (Blackman, Vigna 2019).

    256-bit state, period 2^256 - 1, excellent statistical quality; the
    generator of this library ({!Rng}). *)

type t
(** Mutable generator state. *)

val create : seed:int64 -> t
(** [create ~seed] seeds the 256-bit state by running {!Splitmix64} on
    [seed], as recommended by the algorithm authors. *)

val of_state : int64 array -> t
(** [of_state s] uses the four words of [s] directly.
    @raise Invalid_argument if [Array.length s <> 4] or all words are 0. *)

val next : t -> int64
(** [next t] returns 64 fresh pseudo-random bits. *)

val state : t -> int64 array
(** [state t] is a copy of the four state words (position included):
    [of_state (state t)] replays [t]'s stream from here.  Together with
    {!restore} it lets bulk samplers run the recurrence on unboxed
    locals and write the advanced state back — the zero-allocation hot
    path of {!Gaussian.fill_fa}. *)

val restore : t -> int64 array -> unit
(** [restore t s] overwrites [t]'s state with the four words of [s]
    in place.
    @raise Invalid_argument if [Array.length s <> 4] or all words
    are 0 (the absorbing state). *)
