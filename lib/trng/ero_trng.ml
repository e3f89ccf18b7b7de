module Tm = Ptrng_telemetry.Registry

let bits_total =
  Tm.Counter.v ~help:"Bits delivered by the eRO-TRNG after post-processing."
    "ptrng_trng_bits_generated_total"

let periods_simulated_total =
  Tm.Counter.v ~help:"Oscillator periods simulated to feed the sampler."
    "ptrng_trng_periods_simulated_total"

let generate_seconds =
  Tm.Hist.v ~help:"Wall time of one generate call." ~lo:1e-6 ~hi:1e4
    "ptrng_trng_generate_seconds"

type config = {
  pair : Ptrng_osc.Pair.t;
  divisor : int;
  xor_factor : int;
}

let config ?(divisor = 1000) ?(xor_factor = 1) pair =
  if divisor <= 0 then invalid_arg "Ero_trng.config: divisor <= 0";
  if xor_factor <= 0 then invalid_arg "Ero_trng.config: xor_factor <= 0";
  { pair; divisor; xor_factor }

let paper_trng () = config (Ptrng_osc.Pair.paper_pair ())

(* Periods per fill: the period buffers and the sampler's edges stay
   O(chunk) whatever the bit count. *)
let chunk = 65536

let generate_raw rng cfg ~bits =
  if bits <= 0 then invalid_arg "Ero_trng.generate_raw: bits <= 0";
  (* Simulate enough periods of both rings: [bits * divisor] Osc2
     cycles, and enough Osc1 periods to span them.  The cycles/64
     margin alone covers Osc1 running up to ~1.6% fast; a faster Osc1
     needs cycles * f1/f2 periods plus a jitter margin. *)
  let cycles = (bits + 2) * cfg.divisor in
  let ratio = cfg.pair.osc1.f0 /. cfg.pair.osc2.f0 in
  let n =
    max
      (cycles + (cycles / 64) + 16)
      (int_of_float (Float.ceil (float_of_int cycles *. ratio)) + (cycles / 128) + 16)
  in
  (* One flicker block spans all [n] periods, as in [Pair.simulate ~n],
     so the fills replay its traces bit for bit; they stop as soon as
     [bits] bits are latched. *)
  let stream = Ptrng_osc.Pair.stream ~flicker_block:n rng cfg.pair in
  let len_max = min chunk n in
  let p1 = Float.Array.create len_max and p2 = Float.Array.create len_max in
  let sampler = Sampler.create ~divisor:cfg.divisor ~chunk:len_max in
  let out = Array.make bits false in
  let latched = ref 0 and filled = ref 0 in
  while !latched < bits && !filled < n do
    let len = min len_max (n - !filled) in
    (* Only the first fill synthesizes the flicker blocks: the one
       place the two rings pay for a domain each. *)
    if !filled = 0 then Ptrng_osc.Pair.fill_parallel stream ~p1 ~p2 ~len
    else Ptrng_osc.Pair.fill stream ~p1 ~p2 ~len;
    filled := !filled + len;
    Tm.Counter.add periods_simulated_total (2 * len);
    latched := Sampler.feed sampler ~p1 ~p2 ~len ~bits:out ~pos:!latched
  done;
  Bitstream.of_bools (if !latched = bits then out else Array.sub out 0 !latched)

let generate rng cfg ~bits =
  Tm.Hist.time generate_seconds (fun () ->
      let raw = generate_raw rng cfg ~bits in
      let out =
        if cfg.xor_factor = 1 then raw
        else Post_process.xor_decimate ~k:cfg.xor_factor raw
      in
      Tm.Counter.add bits_total (Bitstream.length out);
      out)
