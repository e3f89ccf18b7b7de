type config = {
  pair : Ptrng_osc.Pair.t;
  km : int;
  kd : int;
}

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let config ?relative ~f0 ~km ~kd () =
  if km <= 0 || kd <= 0 then invalid_arg "Coherent.config: non-positive ratio";
  if gcd km kd <> 1 then invalid_arg "Coherent.config: km and kd must be coprime";
  let relative = Option.value relative ~default:Ptrng_osc.Pair.paper_relative in
  let open Ptrng_noise.Psd_model in
  let half = { b_th = relative.b_th /. 2.0; b_fl = relative.b_fl /. 2.0 } in
  let f1 = f0 *. float_of_int km /. float_of_int kd in
  {
    pair =
      {
        Ptrng_osc.Pair.osc1 =
          Ptrng_osc.Oscillator.config ~f0:f1 ~phase:half ();
        osc2 = Ptrng_osc.Oscillator.config ~f0 ~phase:half ();
      };
    km;
    kd;
  }

let critical_fraction cfg ~sigma_period =
  if sigma_period < 0.0 then invalid_arg "Coherent.critical_fraction: negative sigma";
  let f1 = cfg.pair.Ptrng_osc.Pair.osc1.Ptrng_osc.Oscillator.f0 in
  let t1 = 1.0 /. f1 in
  (* Jitter accumulated over one pattern (kd sampling periods). *)
  let sigma_pattern = sigma_period *. sqrt (float_of_int cfg.kd) in
  (* The kd sample phases are spaced t1/kd apart; with two waveform
     edges per period, the positions within +-sigma of an edge number
     4 sigma / (t1/kd), i.e. a fraction 4 sigma / t1 of all samples. *)
  Float.min 1.0 (4.0 *. sigma_pattern /. t1)

let generate rng cfg ~bits =
  if bits <= 0 then invalid_arg "Coherent.generate: bits <= 0";
  let samples = (bits + 2) * cfg.kd in
  let n2 = samples + 16 in
  (* Osc1 must cover the same time span: kd osc2 periods = km osc1
     periods per pattern, plus margin. *)
  let n1 = ((bits + 2) * cfg.km) + (cfg.km * 2) + 16 in
  let rng1 = Ptrng_prng.Rng.split rng in
  let rng2 = Ptrng_prng.Rng.split rng in
  let p1 = Ptrng_osc.Oscillator.periods rng1 cfg.pair.Ptrng_osc.Pair.osc1 ~n:n1 in
  let p2 = Ptrng_osc.Oscillator.periods rng2 cfg.pair.Ptrng_osc.Pair.osc2 ~n:n2 in
  (* Start Osc1 half a sweep step early so the kd sample phases sit
     midway between the grid points, never exactly on a waveform edge
     (the zero-jitter limit is ill-posed otherwise). *)
  let f1 = cfg.pair.Ptrng_osc.Pair.osc1.Ptrng_osc.Oscillator.f0 in
  let t0 = -1.0 /. (2.0 *. float_of_int cfg.kd *. f1) in
  let osc1_edges = Ptrng_osc.Oscillator.edges_of_periods ~t0 p1 in
  let osc2_edges = Ptrng_osc.Oscillator.edges_of_periods p2 in
  let raw = Sampler.sample ~osc1_edges ~osc2_edges ~divisor:1 in
  let stream = Bitstream.of_bools raw in
  let parity = Post_process.xor_decimate ~k:cfg.kd stream in
  if Bitstream.length parity <= bits then parity
  else Bitstream.sub parity ~pos:0 ~len:bits
