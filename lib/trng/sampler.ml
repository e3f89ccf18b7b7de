module Tm = Ptrng_telemetry.Registry

let samples_total =
  Tm.Counter.v ~help:"Raw D-flip-flop samples taken of osc1 by the divided osc2."
    "ptrng_trng_samples_total"

let state_at ~edges t =
  let n = Array.length edges in
  if n < 2 || t < edges.(0) || t >= edges.(n - 1) then
    invalid_arg "Sampler.state_at: instant outside edge span";
  (* Binary search for the period containing t. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if edges.(mid) <= t then lo := mid else hi := mid
  done;
  let start = edges.(!lo) and stop = edges.(!lo + 1) in
  t -. start < (stop -. start) /. 2.0

(* Where the latch loop stopped: the osc1 period [p] in use, the next
   sample instant [i], and the next free slot [pos] of the bit buffer. *)
type cursor = { mutable p : int; mutable i : int; mutable pos : int }

(* The one latch loop, shared by [sample] and [feed].  It walks the
   sample instants [inst.(i)], [inst.(i + stride)], ... below [n2],
   advancing a single pointer into osc1's edges (overall O(edges), not
   O(samples * log edges)), and stops at the first instant at or past
   osc1's last edge [e1.(n1 - 1)], or when [bits] is full.  An instant
   before [e1.(0)] reads the first period, as the pointer starts
   there. *)
let latch c ~(e1 : float array) ~n1 ~(inst : float array) ~n2 ~stride
    ~(bits : bool array) =
  let cap = Array.length bits in
  let p = ref c.p and i = ref c.i and pos = ref c.pos in
  if n1 >= 2 then begin
    let t_max = Array.unsafe_get e1 (n1 - 1) in
    while !i < n2 && !pos < cap && Array.unsafe_get inst !i < t_max do
      let t = Array.unsafe_get inst !i in
      while !p + 1 < n1 && Array.unsafe_get e1 (!p + 1) <= t do
        incr p
      done;
      let start = Array.unsafe_get e1 !p and stop = Array.unsafe_get e1 (!p + 1) in
      Array.unsafe_set bits !pos (t -. start < (stop -. start) /. 2.0);
      incr pos;
      i := !i + stride
    done
  end;
  c.p <- !p;
  c.i <- !i;
  c.pos <- !pos

let sample ~osc1_edges ~osc2_edges ~divisor =
  if divisor <= 0 then invalid_arg "Sampler.sample: divisor <= 0";
  let n1 = Array.length osc1_edges in
  if n1 < 2 then invalid_arg "Sampler.sample: osc1 stream too short";
  let n2 = Array.length osc2_edges in
  (* Edge 0 is the common time origin: the instants are edges divisor,
     2 divisor, ... *)
  let bits = Array.make (max 0 ((n2 - 1) / divisor)) false in
  let c = { p = 0; i = divisor; pos = 0 } in
  latch c ~e1:osc1_edges ~n1 ~inst:osc2_edges ~n2 ~stride:divisor ~bits;
  Tm.Counter.add samples_total c.pos;
  if c.pos = Array.length bits then bits else Array.sub bits 0 c.pos

(* ------------------------------------------------------------------ *)
(* The streamed sampler                                                *)
(* ------------------------------------------------------------------ *)

module FA = Float.Array

type t = {
  divisor : int;
  (* osc1 edges still needed: [e1.(0)] starts the period the next
     instant may fall in, and [e1.(n1 - 1)] is the running edge every
     new period is summed onto. *)
  mutable e1 : float array;
  mutable n1 : int;
  (* Sample instants not yet passed by an osc1 edge, in order. *)
  mutable inst : float array;
  mutable n2 : int;
  e2 : float array;              (* 1 cell: the running osc2 edge *)
  mutable count : int;           (* osc2 edges since the last instant *)
  cur : cursor;
}

(* Both rings start at t = 0, the common time origin. *)
let restart st =
  Array.unsafe_set st.e1 0 0.0;
  st.n1 <- 1;
  st.n2 <- 0;
  Array.unsafe_set st.e2 0 0.0;
  st.count <- 0

let create ~divisor ~chunk =
  if divisor <= 0 then invalid_arg "Sampler.create: divisor <= 0";
  if chunk <= 0 then invalid_arg "Sampler.create: chunk <= 0";
  (* A chunk's edges plus the carry, which is the edges since the last
     instant (under [divisor]) when the rings keep pace; edge 0 is the
     origin. *)
  {
    divisor;
    e1 = Array.make (chunk + divisor + 1) 0.0;
    n1 = 1;
    inst = Array.create_float ((chunk / divisor) + 2);
    n2 = 0;
    e2 = Array.make 1 0.0;
    count = 0;
    cur = { p = 0; i = 0; pos = 0 };
  }

(* Room for [len] more periods of each ring: the carried edges and
   instants plus the chunk's.  The carry outgrows the initial buffers
   only while the rings drift apart, and they grow by half each time,
   so this allocates O(log backlog) times per sampler. *)
let reserve st ~len =
  let grow a used need =
    let b = Array.create_float (max need (Array.length a * 3 / 2)) in
    Array.blit a 0 b 0 used;
    b
  in
  let need1 = st.n1 + len in
  if need1 > Array.length st.e1 then st.e1 <- grow st.e1 st.n1 need1;
  let need2 = st.n2 + (len / st.divisor) + 1 in
  if need2 > Array.length st.inst then st.inst <- grow st.inst st.n2 need2

(* Sum the chunk's periods onto the running edges exactly as
   [Oscillator.edges_of_periods] does, e(k+1) = e(k) + p(k), with no
   re-basing, and latch; then keep only what a later instant can
   still use.  The buffers must have room ([reserve]). *)
let feed_chunk st ~p1 ~p2 ~len ~bits ~pos =
  let e1 = st.e1 and inst = st.inst in
  let n1 = st.n1 in
  let e = ref (Array.unsafe_get e1 (n1 - 1)) in
  for k = 0 to len - 1 do
    e := !e +. FA.unsafe_get p1 k;
    Array.unsafe_set e1 (n1 + k) !e
  done;
  let n1 = n1 + len in
  let e = ref (Array.unsafe_get st.e2 0) in
  let count = ref st.count and n2 = ref st.n2 in
  for k = 0 to len - 1 do
    e := !e +. FA.unsafe_get p2 k;
    incr count;
    if !count = st.divisor then begin
      count := 0;
      Array.unsafe_set inst !n2 !e;
      incr n2
    end
  done;
  Array.unsafe_set st.e2 0 !e;
  st.count <- !count;
  let c = st.cur in
  c.p <- 0;
  c.i <- 0;
  c.pos <- pos;
  latch c ~e1 ~n1 ~inst ~n2:!n2 ~stride:1 ~bits;
  (* Later instants lie past the current one, so osc1's pointer
     resumes at [p]: the edges before it are done with. *)
  Array.blit e1 c.p e1 0 (n1 - c.p);
  st.n1 <- n1 - c.p;
  Array.blit inst c.i inst 0 (!n2 - c.i);
  st.n2 <- !n2 - c.i;
  c.pos

let feed st ~p1 ~p2 ~len ~bits ~pos =
  if len < 0 || len > FA.length p1 || len > FA.length p2 then
    invalid_arg "Sampler.feed: bad len";
  if pos < 0 || pos > Array.length bits then invalid_arg "Sampler.feed: bad pos";
  reserve st ~len;
  let stop = feed_chunk st ~p1 ~p2 ~len ~bits ~pos in
  Tm.Counter.add samples_total (stop - pos);
  stop
