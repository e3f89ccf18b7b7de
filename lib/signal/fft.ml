module Tm = Ptrng_telemetry.Registry
module FA = Float.Array

let fft_total =
  Tm.Counter.v ~help:"Power-of-two FFT passes executed (forward or inverse)."
    "ptrng_signal_fft_total"

let bluestein_total =
  Tm.Counter.v ~help:"Bluestein chirp-z transforms of non-power-of-two length."
    "ptrng_signal_fft_bluestein_total"

let fft_size =
  Tm.Hist.v ~help:"Transform length in points." ~lo:1.0 ~hi:1e9
    ~buckets_per_decade:3 "ptrng_signal_fft_size"

let is_pow2 n = n > 0 && n land (n - 1) = 0

let next_pow2 n =
  let rec grow p = if p >= n then p else grow (p * 2) in
  grow 1

let check_lengths n n_im =
  if n_im <> n then invalid_arg "Fft: re/im length mismatch";
  n

let check_pow2 re im =
  let n = check_lengths (FA.length re) (FA.length im) in
  if not (is_pow2 n) then invalid_arg "Fft: length not a power of two";
  n

let bit_reverse_permute re im =
  let n = FA.length re in
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tr = FA.unsafe_get re i in
      FA.unsafe_set re i (FA.unsafe_get re !j);
      FA.unsafe_set re !j tr;
      let ti = FA.unsafe_get im i in
      FA.unsafe_set im i (FA.unsafe_get im !j);
      FA.unsafe_set im !j ti
    end;
    let bit = ref (n lsr 1) in
    while !j land !bit <> 0 do
      j := !j lxor !bit;
      bit := !bit lsr 1
    done;
    j := !j lor !bit
  done

(* The twiddle factors of a butterfly stage of span [len] walk the unit
   circle with a multiplicative recurrence, re-anchored every 64 steps
   by a direct cos/sin evaluation so rounding error cannot accumulate
   over multi-million-point transforms.  A factor depends on the span,
   the sign and its index k, not on the block, so stages of span up to
   [table_max] (most of the blocks) read it from a table filled once;
   longer stages restart the recurrence in each of their few blocks.
   [twiddles] and [stage_direct] run the recurrence with the same
   operations in the same order, so a tabulated factor is bitwise the
   one the direct loop computes.  In a table, the factors of span [len]
   are the (re, im) pairs [len/2 - 1 .. len - 2]. *)
let table_max = 1 lsl 13

let twiddles sign =
  let t = FA.create (2 * (table_max - 1)) in
  let len = ref 2 in
  while !len <= table_max do
    let half = !len / 2 in
    let ang = sign *. 2.0 *. Float.pi /. float_of_int !len in
    let step_r = cos ang and step_i = sin ang in
    let wr = ref 1.0 and wi = ref 0.0 in
    for k = 0 to half - 1 do
      if k land 63 = 0 then begin
        let a = ang *. float_of_int k in
        wr := cos a;
        wi := sin a
      end;
      let j = 2 * (half - 1 + k) in
      FA.set t j !wr;
      FA.set t (j + 1) !wi;
      let nwr = (!wr *. step_r) -. (!wi *. step_i) in
      wi := (!wr *. step_i) +. (!wi *. step_r);
      wr := nwr
    done;
    len := !len * 2
  done;
  t

(* Filled once at module initialisation and never written again, so
   every domain can read them. *)
let forward_twiddles = twiddles (-1.0)

let inverse_twiddles = twiddles 1.0

let[@inline] butterfly re im p q wr wi =
  let rq = FA.unsafe_get re q and iq = FA.unsafe_get im q in
  let vr = (rq *. wr) -. (iq *. wi) in
  let vi = (rq *. wi) +. (iq *. wr) in
  let rp = FA.unsafe_get re p and ip = FA.unsafe_get im p in
  FA.unsafe_set re q (rp -. vr);
  FA.unsafe_set im q (ip -. vi);
  FA.unsafe_set re p (rp +. vr);
  FA.unsafe_set im p (ip +. vi)

let stage_table re im n len t =
  let half = len / 2 in
  let base = 2 * (half - 1) in
  let i = ref 0 in
  while !i < n do
    for k = 0 to half - 1 do
      let j = base + (2 * k) in
      butterfly re im (!i + k) (!i + k + half) (FA.unsafe_get t j)
        (FA.unsafe_get t (j + 1))
    done;
    i := !i + len
  done

let stage_direct re im n len sign =
  let half = len / 2 in
  let ang = sign *. 2.0 *. Float.pi /. float_of_int len in
  let step_r = cos ang and step_i = sin ang in
  let i = ref 0 in
  while !i < n do
    let wr = ref 1.0 and wi = ref 0.0 in
    for k = 0 to half - 1 do
      if k land 63 = 0 then begin
        let a = ang *. float_of_int k in
        wr := cos a;
        wi := sin a
      end;
      butterfly re im (!i + k) (!i + k + half) !wr !wi;
      let nwr = (!wr *. step_r) -. (!wi *. step_i) in
      wi := (!wr *. step_i) +. (!wi *. step_r);
      wr := nwr
    done;
    i := !i + len
  done

(* The uncounted core on an already-checked length [n].  Overlap_add
   calls it directly: the telemetry histogram boxes its observation,
   and the convolver sits on the allocation-free streaming path. *)
let transform ~sign re im n =
  if n > 1 then begin
    bit_reverse_permute re im;
    let t = if sign < 0.0 then forward_twiddles else inverse_twiddles in
    let len = ref 2 in
    while !len <= n do
      if !len <= table_max then stage_table re im n !len t
      else stage_direct re im n !len sign;
      len := !len * 2
    done
  end

let inverse_scaled re im n =
  transform ~sign:1.0 re im n;
  let inv = 1.0 /. float_of_int n in
  for i = 0 to n - 1 do
    FA.unsafe_set re i (FA.unsafe_get re i *. inv);
    FA.unsafe_set im i (FA.unsafe_get im i *. inv)
  done

let count n =
  if !Tm.on then begin
    Tm.Counter.incr fft_total;
    Tm.Hist.observe fft_size (float_of_int n)
  end

let forward_pow2 ~re ~im =
  let n = check_pow2 re im in
  count n;
  transform ~sign:(-1.0) re im n

let inverse_pow2 ~re ~im =
  let n = check_pow2 re im in
  count n;
  inverse_scaled re im n

(* Bluestein chirp-z: an n-point forward DFT as a cyclic convolution of
   length m = next_pow2 (2n-1).  Chirp phases use k^2 mod 2n in exact
   integer arithmetic to keep the angle accurate for large k. *)
let chirp_angle n k =
  let k2 = k * k mod (2 * n) in
  Float.pi *. float_of_int k2 /. float_of_int n

let bluestein re im n =
  if !Tm.on then begin
    Tm.Counter.incr bluestein_total;
    Tm.Hist.observe fft_size (float_of_int n)
  end;
  let m = next_pow2 ((2 * n) - 1) in
  let ar = FA.make m 0.0 and ai = FA.make m 0.0 in
  let br = FA.make m 0.0 and bi = FA.make m 0.0 in
  for k = 0 to n - 1 do
    let ang = -.chirp_angle n k in
    let c = cos ang and s = sin ang in
    FA.set ar k ((re.(k) *. c) -. (im.(k) *. s));
    FA.set ai k ((re.(k) *. s) +. (im.(k) *. c));
    FA.set br k c;
    FA.set bi k (-.s);
    if k > 0 then begin
      FA.set br (m - k) c;
      FA.set bi (m - k) (-.s)
    end
  done;
  forward_pow2 ~re:ar ~im:ai;
  forward_pow2 ~re:br ~im:bi;
  for k = 0 to m - 1 do
    let xr = FA.get ar k and xi = FA.get ai k in
    let yr = FA.get br k and yi = FA.get bi k in
    FA.set ar k ((xr *. yr) -. (xi *. yi));
    FA.set ai k ((xr *. yi) +. (xi *. yr))
  done;
  inverse_pow2 ~re:ar ~im:ai;
  let outr = Array.make n 0.0 and outi = Array.make n 0.0 in
  for k = 0 to n - 1 do
    let ang = -.chirp_angle n k in
    let c = cos ang and s = sin ang in
    let xr = FA.get ar k and xi = FA.get ai k in
    outr.(k) <- (xr *. c) -. (xi *. s);
    outi.(k) <- (xr *. s) +. (xi *. c)
  done;
  (outr, outi)

let dft ~re ~im =
  let n = check_lengths (Array.length re) (Array.length im) in
  if is_pow2 n then begin
    let cr = FA.map_from_array Fun.id re and ci = FA.map_from_array Fun.id im in
    forward_pow2 ~re:cr ~im:ci;
    (FA.map_to_array Fun.id cr, FA.map_to_array Fun.id ci)
  end
  else bluestein re im n

let rfft x = dft ~re:x ~im:(Array.make (Array.length x) 0.0)

module Overlap_add = struct
  type t = {
    m : int;          (* transform length *)
    block : int;      (* max input samples per [process] call *)
    taps : int;
    hr : FA.t;        (* filter spectrum, length m *)
    hi : FA.t;
    xr : FA.t;        (* work buffers, length m *)
    xi : FA.t;
    tail : FA.t;      (* taps-1 carried convolution tail *)
  }

  let taps t = t.taps

  let block t = t.block

  let fft_length t = t.m

  let create ~h ~block =
    let taps = FA.length h in
    if taps <= 0 then invalid_arg "Overlap_add.create: empty filter";
    if block <= 0 then invalid_arg "Overlap_add.create: block <= 0";
    let m = next_pow2 (block + taps - 1) in
    let hr = FA.make m 0.0 and hi = FA.make m 0.0 in
    FA.blit h 0 hr 0 taps;
    transform ~sign:(-1.0) hr hi m;
    {
      m;
      block;
      taps;
      hr;
      hi;
      xr = FA.make m 0.0;
      xi = FA.make m 0.0;
      tail = FA.make (max 1 (taps - 1)) 0.0;
    }

  let reset t = FA.fill t.tail 0 (FA.length t.tail) 0.0

  let process t ~src ~src_pos ~dst ~dst_pos ~len =
    if len <= 0 || len > t.block then invalid_arg "Overlap_add.process: bad len";
    if src_pos < 0 || src_pos + len > FA.length src then
      invalid_arg "Overlap_add.process: src range";
    if dst_pos < 0 || dst_pos + len > FA.length dst then
      invalid_arg "Overlap_add.process: dst range";
    let { m; xr; xi; hr; hi; tail; taps; _ } = t in
    FA.fill xr 0 m 0.0;
    FA.fill xi 0 m 0.0;
    FA.blit src src_pos xr 0 len;
    transform ~sign:(-1.0) xr xi m;
    for k = 0 to m - 1 do
      let ar = FA.unsafe_get xr k and ai = FA.unsafe_get xi k in
      let br = FA.unsafe_get hr k and bi = FA.unsafe_get hi k in
      FA.unsafe_set xr k ((ar *. br) -. (ai *. bi));
      FA.unsafe_set xi k ((ar *. bi) +. (ai *. br))
    done;
    inverse_scaled xr xi m;
    (* y_full has len + taps - 1 terms: emit the first len (adding the
       carried tail), keep the remaining taps - 1 as the new tail. *)
    let tl = taps - 1 in
    let overlap = min len tl in
    for i = 0 to overlap - 1 do
      FA.unsafe_set dst (dst_pos + i)
        (FA.unsafe_get xr i +. FA.unsafe_get tail i)
    done;
    for i = overlap to len - 1 do
      FA.unsafe_set dst (dst_pos + i) (FA.unsafe_get xr i)
    done;
    for j = 0 to tl - 1 do
      let carried = if len + j < tl then FA.unsafe_get tail (len + j) else 0.0 in
      FA.unsafe_set tail j (FA.unsafe_get xr (len + j) +. carried)
    done
end
