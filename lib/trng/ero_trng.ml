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
  Tm.Counter.add periods_simulated_total (2 * n);
  let p1, p2 = Ptrng_osc.Pair.simulate rng cfg.pair ~n in
  let osc1_edges = Ptrng_osc.Oscillator.edges_of_periods p1 in
  let osc2_edges = Ptrng_osc.Oscillator.edges_of_periods p2 in
  let raw = Sampler.sample ~osc1_edges ~osc2_edges ~divisor:cfg.divisor in
  let available = Array.length raw in
  if available < bits then Bitstream.of_bools raw
  else Bitstream.of_bools (Array.sub raw 0 bits)

let generate rng cfg ~bits =
  Tm.Hist.time generate_seconds (fun () ->
      let raw = generate_raw rng cfg ~bits in
      let out =
        if cfg.xor_factor = 1 then raw
        else Post_process.xor_decimate ~k:cfg.xor_factor raw
      in
      Tm.Counter.add bits_total (Bitstream.length out);
      out)
