module Tm = Ptrng_telemetry.Registry

let blocks_total =
  Tm.Counter.v ~help:"AIS31 online-test blocks completed (streaming monobit)."
    "ptrng_ais31_online_blocks_total"

let alarms_total =
  Tm.Counter.v ~help:"AIS31 online-test blocks whose ones count left the bound."
    "ptrng_ais31_online_alarms_total"

type t = {
  block_bits : int;
  lo : int;
  hi : int;
  mutable seen : int;    (* bits in the current (incomplete) block *)
  mutable ones : int;
  mutable blocks : int;
  mutable alarms : int;
}

let create ?(block_bits = Procedure_a.block_bits) ?(alpha_exp = 20) () =
  if block_bits < 64 then invalid_arg "Online.create: block_bits < 64";
  if alpha_exp <= 0 then invalid_arg "Online.create: alpha_exp <= 0";
  (* Two-sided bound at alpha = 2^-alpha_exp: half of the mass in each
     tail.  Var(ones) = w/4 under the null. *)
  let alpha = 2.0 ** -.float_of_int alpha_exp in
  let z = Ptrng_stats.Special.normal_ppf (1.0 -. (alpha /. 2.0)) in
  let half = float_of_int block_bits /. 2.0 in
  let d = z *. sqrt (float_of_int block_bits) /. 2.0 in
  let lo = int_of_float (Float.ceil (half -. d)) in
  let hi = int_of_float (Float.floor (half +. d)) in
  { block_bits; lo; hi; seen = 0; ones = 0; blocks = 0; alarms = 0 }


(* Close the block the last bit completed; 1 when it alarmed. *)
let close_block t =
  let alarm = t.ones < t.lo || t.ones > t.hi in
  t.seen <- 0;
  t.ones <- 0;
  t.blocks <- t.blocks + 1;
  if alarm then t.alarms <- t.alarms + 1;
  Tm.Counter.incr blocks_total;
  if alarm then Tm.Counter.incr alarms_total;
  Bool.to_int alarm

(* -1 = mid-block, 0 = block passed, 1 = block alarmed: an int, so the
   per-bit feed allocates nothing. *)
let feed_flag t bit =
  t.seen <- t.seen + 1;
  if bit then t.ones <- t.ones + 1;
  if t.seen < t.block_bits then -1 else close_block t

(* One block segment at a time: the ones are summed without a branch
   on the bit, and a block closes where its last bit lands. *)
let feed_run t bs ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length bs - len then
    invalid_arg "Online.feed_run: range";
  let i = ref pos and stop = pos + len and alarms = ref 0 in
  while !i < stop do
    let room = t.block_bits - t.seen in
    let seg = if stop - !i < room then stop - !i else room in
    let ones = ref t.ones in
    for j = !i to !i + seg - 1 do
      ones := !ones + Bool.to_int (Array.unsafe_get bs j)
    done;
    t.ones <- !ones;
    t.seen <- t.seen + seg;
    i := !i + seg;
    if t.seen >= t.block_bits then alarms := !alarms + close_block t
  done;
  !alarms

let blocks t = t.blocks
let alarms t = t.alarms

let scan t bits = feed_run t bits ~pos:0 ~len:(Array.length bits)
