(** Discrete phase-chain stochastic model (Amaki et al., the paper's
    ref. [6] style).

    The sampled relative phase is discretised into [bins] states on
    [0, 2pi); between samples it advances by a deterministic drift plus
    wrapped-Gaussian diffusion, giving a circulant Markov transition
    matrix.  From the chain we obtain, without any closed-form
    shortcuts:

    - the stationary phase distribution (uniform for this kernel, but
      computed, not assumed — power iteration);
    - the bit emission probability per state (first half-period = 1);
    - the entropy rate H(b' | s) of the emitted bit given the current
      state — the quantity Amaki-style models report.

    Validated against {!Bit_markov} (which integrates the same physics
    analytically) in the test-suite; kept as an independent
    implementation of the "state-of-the-art model" family the paper
    positions itself against. *)

type t

val create : ?bins:int -> drift:float -> diffusion:float -> unit -> t
(** Build the chain (default 256 bins).
    @raise Invalid_argument if [bins < 8] or [diffusion < 0]. *)

val stationary : t -> float array
(** Stationary distribution over the phase bins (power iteration). *)

val bit_probability_of_state : t -> int -> float
(** P(bit = 1 | phase in bin i) after one transition. *)

val marginal_bit_probability : t -> float
(** P(bit = 1) under the stationary distribution. *)

val entropy_rate_given_state : t -> float
(** H(b' | s) in bits: the entropy of the next bit given the current
    (hidden) phase state, averaged over the stationary distribution —
    the conservative model-based entropy claim. *)

val simulate : Ptrng_prng.Rng.t -> t -> bits:int -> bool array
(** Draw a bit sequence from the chain itself (not the event-level
    oscillator) — used to cross-check the chain against its own
    predictions. *)
