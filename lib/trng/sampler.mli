(** The digitizer of the eRO-TRNG (paper Fig. 4): a D flip-flop
    clocked by (divided) Osc2 latching the instantaneous state of Osc1.

    Osc1 is modelled as a 50% duty square wave: between consecutive
    rising edges [e_i, e_{i+1})] its state is high on the first half of
    the period.

    Two forms share one latch loop: {!sample} over whole edge arrays,
    and the streamed sampler {!t}, fed the rings' periods chunk by
    chunk.  Over any partition into chunks the streamed bits equal
    {!sample} on the concatenated edges, bit for bit. *)

val state_at : edges:float array -> float -> bool
(** [state_at ~edges t] is Osc1's level at time [t] (edges must be the
    increasing rising-edge instants covering [t]).
    @raise Invalid_argument if [t] lies outside the edge span. *)

val sample :
  osc1_edges:float array -> osc2_edges:float array -> divisor:int -> bool array
(** [sample ~osc1_edges ~osc2_edges ~divisor] latches Osc1 at every
    [divisor]-th Osc2 rising edge (skipping edge 0, which is the common
    time origin), producing as many bits as fit in the streams.
    @raise Invalid_argument if [divisor <= 0]. *)

type t
(** A streamed sampler.  It carries across {!feed} calls the running
    edge time of each ring (summed as {!Ptrng_osc.Oscillator.edges_of_periods}
    sums them, never re-based), the Osc2 edge count modulo the divisor,
    the sample instants no Osc1 edge has passed yet, and the Osc1 edges
    a later instant may still fall between. *)

val create : divisor:int -> chunk:int -> t
(** [create ~divisor ~chunk] is a sampler with both rings at t = 0,
    sized for feeds of up to [chunk] periods (longer feeds, or rings
    drifting apart, grow its buffers).
    @raise Invalid_argument if [divisor <= 0] or [chunk <= 0]. *)

val restart : t -> unit
(** Put both rings back at t = 0 and drop every pending instant, as a
    fresh {!create} would. *)

val feed :
  t ->
  p1:Float.Array.t ->
  p2:Float.Array.t ->
  len:int ->
  bits:bool array ->
  pos:int ->
  int
(** [feed st ~p1 ~p2 ~len ~bits ~pos] sums the next [len] periods of
    each ring onto its edges, writes the bits latched so far into
    [bits] from [pos] on and returns the next free position.  It stops
    when [bits] is full; the instants left over are latched by later
    feeds.
    @raise Invalid_argument if [len] exceeds either period buffer or
    [pos] lies outside [bits]. *)
