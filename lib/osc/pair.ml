type t = {
  osc1 : Oscillator.config;
  osc2 : Oscillator.config;
}

let of_relative ?(detuning = 1e-4) ~f0 ~relative () =
  let open Ptrng_noise.Psd_model in
  let half = { b_th = relative.b_th /. 2.0; b_fl = relative.b_fl /. 2.0 } in
  let f1 = f0 *. (1.0 +. (detuning /. 2.0)) in
  let f2 = f0 *. (1.0 -. (detuning /. 2.0)) in
  {
    osc1 = Oscillator.config ~f0:f1 ~phase:half ();
    osc2 = Oscillator.config ~f0:f2 ~phase:half ();
  }

let paper_f0 = 103e6

(* b_fl = b_th * f0 / (4 ln2 * 5354): the value that makes
   r_N = 5354 / (5354 + N) as measured in the paper. *)
let paper_relative =
  let b_th = 276.04 in
  { Ptrng_noise.Psd_model.b_th; b_fl = b_th *. paper_f0 /. (4.0 *. log 2.0 *. 5354.0) }

let paper_pair () = of_relative ~f0:paper_f0 ~relative:paper_relative ()

let simulate ?domains rng pair ~n =
  let rng1 = Ptrng_prng.Rng.split rng in
  let rng2 = Ptrng_prng.Rng.split rng in
  (* Each ring is one sequential source fill, so the rings themselves
     are the only parallel tasks. *)
  let traces =
    Ptrng_exec.Pool.parallel_map ?domains
      (fun (rng, cfg) -> Oscillator.periods rng cfg ~n)
      [| (rng1, pair.osc1); (rng2, pair.osc2) |]
  in
  (traces.(0), traces.(1))

module FA = Float.Array
module Scenario = Ptrng_device.Scenario

(* Scenario fills stage the per-ring noise components through fixed
   scratch segments, mirroring the flicker staging inside
   Oscillator.fill_periods. *)
let sc_seg = 4096

type stream = {
  s1 : Oscillator.source;
  s2 : Oscillator.source;
  scen : Scenario.t option;
  sc_state : Scenario.state;
  sc_th1 : FA.t;
  sc_fl1 : FA.t;
  sc_th2 : FA.t;
  sc_fl2 : FA.t;
  sc_f1 : float;      (* nominal (unscaled) per-ring frequencies *)
  sc_f2 : float;
  mutable sc_pos : int;
}

let stream ?flicker_block ?scenario rng pair =
  (* Same substream discipline as [simulate]: two splits, one per
     oscillator, so a stream with [flicker_block = n] replays
     [simulate ~n] bit for bit. *)
  let rng1 = Ptrng_prng.Rng.split rng in
  let rng2 = Ptrng_prng.Rng.split rng in
  let scratch () =
    match scenario with Some _ -> FA.create sc_seg | None -> FA.create 0
  in
  {
    s1 = Oscillator.source ?flicker_block rng1 pair.osc1;
    s2 = Oscillator.source ?flicker_block rng2 pair.osc2;
    scen = scenario;
    sc_state = Scenario.state ();
    sc_th1 = scratch ();
    sc_fl1 = scratch ();
    sc_th2 = scratch ();
    sc_fl2 = scratch ();
    sc_f1 = pair.osc1.Oscillator.f0;
    sc_f2 = pair.osc2.Oscillator.f0;
    sc_pos = 0;
  }


let position st =
  match st.scen with
  | Some _ -> st.sc_pos
  | None -> Oscillator.source_position st.s1

(* One scheduled sample.  With the schedule at identity (all
   multipliers 1, no coupling, no tone) every factor below is exactly
   1.0 and the combination order matches fill_periods —
   [(t0 +. g) +. (t0 *. y)] — so the scenario path is bit-identical to
   the plain stream.  Under a schedule, scaling b_th by u and f0 by r
   scales the thermal period jitter sigma = sqrt(b_th / f^3) by
   [sqrt u / r^1.5] and the flicker fractional-frequency amplitude
   sqrt(h_-1) = sqrt(2 b_fl / f^2) by [sqrt v / r]; coupling c pulls
   both frequencies and both jitter deviations toward their common
   mean (injection locking: the relative process collapses while each
   ring keeps oscillating); the tone adds deterministic jitter to the
   sampled ring only. *)
let fill_scenario st scen ~p1 ~p2 ~len =
  let state = st.sc_state in
  let f1n = st.sc_f1 and f2n = st.sc_f2 in
  let off = ref 0 in
  while !off < len do
    let seg = min sc_seg (len - !off) in
    Oscillator.fill_components st.s1 ~len:seg ~thermal:st.sc_th1
      ~flicker:st.sc_fl1;
    Oscillator.fill_components st.s2 ~len:seg ~thermal:st.sc_th2
      ~flicker:st.sc_fl2;
    let base = !off in
    for j = 0 to seg - 1 do
      Scenario.eval scen (st.sc_pos + base + j) state;
      let f1 = f1n *. state.f0_mult and f2 = f2n *. state.f0_mult in
      let c = state.coupling in
      (* Two scalar ifs, not one returning a pair: a tuple here is a
         fresh 2-block per sample (R7).  Same float expressions, same
         results. *)
      let f1e =
        if c > 0.0 then f1 +. (c *. ((0.5 *. (f1 +. f2)) -. f1)) else f1
      in
      let f2e =
        if c > 0.0 then f2 +. (c *. ((0.5 *. (f1 +. f2)) -. f2)) else f2
      in
      let t01 = 1.0 /. f1e and t02 = 1.0 /. f2e in
      let r1 = f1e /. f1n and r2 = f2e /. f2n in
      let sth = sqrt state.th_mult and sfl = sqrt state.fl_mult in
      let g1 = sth /. (r1 *. sqrt r1) *. FA.unsafe_get st.sc_th1 j
      and g2 = sth /. (r2 *. sqrt r2) *. FA.unsafe_get st.sc_th2 j in
      let y1 = sfl /. r1 *. FA.unsafe_get st.sc_fl1 j
      and y2 = sfl /. r2 *. FA.unsafe_get st.sc_fl2 j in
      if c > 0.0 then begin
        let d1 = g1 +. (t01 *. y1) and d2 = g2 +. (t02 *. y2) in
        let m = 0.5 *. (d1 +. d2) in
        FA.unsafe_set p1 (base + j)
          (t01 +. (d1 +. (c *. (m -. d1))) +. (t01 *. state.tone));
        FA.unsafe_set p2 (base + j) (t02 +. (d2 +. (c *. (m -. d2))))
      end
      else begin
        FA.unsafe_set p1 (base + j)
          ((t01 +. g1) +. (t01 *. y1) +. (t01 *. state.tone));
        FA.unsafe_set p2 (base + j) ((t02 +. g2) +. (t02 *. y2))
      end
    done;
    off := !off + seg
  done;
  st.sc_pos <- st.sc_pos + len

(* Skipping a scenario stream needs no schedule evaluation: the
   schedule is a pure function of the absolute sample index, so
   advancing both sources and the position is enough — the next fill
   picks the schedule up exactly where a continuous run would be. *)
let skip st n =
  if n < 0 then invalid_arg "Pair.skip: negative";
  Oscillator.source_skip st.s1 n;
  Oscillator.source_skip st.s2 n;
  st.sc_pos <- st.sc_pos + n

(* Both buffers are checked before either ring advances, so a bad
   call leaves the pair in step. *)
let fill st ~p1 ~p2 ~len =
  if len < 0 || len > FA.length p1 || len > FA.length p2 then
    invalid_arg "Pair.fill: bad len";
  match st.scen with
  | None ->
    Oscillator.fill_periods_n st.s1 ~len p1;
    Oscillator.fill_periods_n st.s2 ~len p2
  | Some scen -> fill_scenario st scen ~p1 ~p2 ~len

(* The rings of a plain stream draw from their own sources, so they
   can fill on two domains; the first fill synthesizes each ring's
   flicker block, which is where a second core pays. *)
let fill_parallel st ~p1 ~p2 ~len =
  if len < 0 || len > FA.length p1 || len > FA.length p2 then
    invalid_arg "Pair.fill_parallel: bad len";
  if Option.is_some st.scen then
    invalid_arg "Pair.fill_parallel: scenario streams fill on one domain";
  ignore
    (Ptrng_exec.Pool.parallel_map
       (fun (src, buf) -> Oscillator.fill_periods_n src ~len buf)
       [| (st.s1, p1); (st.s2, p2) |])
