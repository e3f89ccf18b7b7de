(** Standard-normal sampling: the Marsaglia–Tsang ziggurat (128
    layers) over {!Rng}. *)

val draw : Rng.t -> float
(** One N(0,1) deviate. *)

val draw_scaled : Rng.t -> mu:float -> sigma:float -> float
(** [draw_scaled rng ~mu ~sigma] is [mu + sigma * draw rng]. *)

val fill_fa : Rng.t -> sigma:float -> Float.Array.t -> pos:int -> len:int -> unit
(** [fill_fa rng ~sigma dst ~pos ~len] overwrites [dst.(pos ..
    pos+len-1)] with [sigma *. draw rng] samples ([sigma] is a required
    label so hot callers never build a [Some] block),
    draw-for-draw identical to calling {!draw} in a loop — same uniform
    consumption, same values, any partition of a stream into fills.
    The whole loop runs on unboxed locals ({!Rng.xoshiro_state}),
    making it allocation-free.  This is the generator behind the
    streaming noise hot path ({!Ptrng_noise.Source}).
    @raise Invalid_argument on a bad range. *)
