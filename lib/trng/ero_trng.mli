(** The elementary ring-oscillator TRNG (paper Fig. 4): two
    free-running rings, a D flip-flop sampling Osc1 at every
    [divisor]-th Osc2 edge, and optional algebraic post-processing. *)

type config = {
  pair : Ptrng_osc.Pair.t;
  divisor : int;             (** Accumulation length K between samples. *)
  xor_factor : int;          (** Parity-filter factor (1 = none). *)
}

val config :
  ?divisor:int -> ?xor_factor:int -> Ptrng_osc.Pair.t -> config
(** Defaults: divisor 1000, no post-processing.
    @raise Invalid_argument on non-positive parameters. *)

val paper_trng : unit -> config
(** eRO-TRNG built on {!Ptrng_osc.Pair.paper_pair}. *)

val generate : Ptrng_prng.Rng.t -> config -> bits:int -> Bitstream.t
(** Simulate the generator until [bits] raw bits are produced, then
    apply the parity filter (so the output holds [bits / xor_factor]
    bits). @raise Invalid_argument if [bits <= 0]. *)

val generate_raw : Ptrng_prng.Rng.t -> config -> bits:int -> Bitstream.t
(** The raw binary sequence before post-processing, [bits] long: both
    rings are simulated long enough for that many samples whichever
    ring is faster. *)
