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

(* log2 of a power of two. *)
let log2 n =
  let l = ref 0 in
  while 1 lsl !l < n do
    incr l
  done;
  !l

(* Reversal of the 3-bit index [b]. *)
let[@inline] rev3 b = ((b land 1) lsl 2) lor (b land 2) lor (b lsr 2)

(* In-place bit-reversal permutation of [x] (length 2^l), tile by tile.
   An index splits into 3 high bits a, l - 6 middle bits m and 3 low
   bits b; its reversal is rev3 b, rev m, rev3 a.  So the 8x8 tile of
   middle bits m, 8 rows of 8 consecutive floats (one cache line each),
   maps onto the tile of rev m, transposed, and swapping the two tiles
   whole touches 16 lines instead of two lines per element.  A
   self-reversed tile swaps only the pairs with i < j.  Below 2^6
   points a tile is one element (t = 0): the plain pairwise reversal.
   [rm] walks rev m by the reversed-carry increment. *)
let bit_reverse x l =
  let t = if l >= 6 then 3 else 0 in
  let w = (1 lsl t) - 1 in
  let sh = l - t in
  let nm = 1 lsl (l - (2 * t)) in
  let rm = ref 0 in
  for m = 0 to nm - 1 do
    let r = !rm in
    if m <= r then
      for a = 0 to w do
        let ib = (a lsl sh) lor (m lsl t) and jb = (r lsl t) lor rev3 a in
        for b = 0 to w do
          let i = ib lor b and j = (rev3 b lsl sh) lor jb in
          if m < r || i < j then begin
            let v = FA.unsafe_get x i in
            FA.unsafe_set x i (FA.unsafe_get x j);
            FA.unsafe_set x j v
          end
        done
      done;
    let bit = ref (nm lsr 1) in
    while !rm land !bit <> 0 do
      rm := !rm lxor !bit;
      bit := !bit lsr 1
    done;
    rm := !rm lor !bit
  done

(* The twiddle factors of a butterfly stage of span [len] walk the unit
   circle with a multiplicative recurrence, re-anchored every 64 steps
   by a direct cos/sin evaluation so rounding error cannot accumulate
   over multi-million-point transforms.  A factor depends on the span,
   the sign and its index k, not on the block, so stages of span up to
   [table_max] (most of the blocks) read it from a table filled once;
   longer stages restart the recurrence in each of their few blocks.
   [twiddles], [stage_direct] and [stages_direct] run the recurrence
   with the same operations in the same order, so a tabulated factor is
   bitwise the one the direct loop computes.  In a table, the factors
   of span [len] are the (re, im) pairs [len/2 - 1 .. len - 2]. *)
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

(* Stages of span [len] and [2 len] on the four points p, p + h,
   p + len and p + len + h (h = len / 2) held in locals: the span-[len]
   butterflies (p, p + h) and (p + len, p + len + h) by w1, then the
   span-[2 len] butterflies (p, p + len) by w2 and (p + h, p + len + h)
   by w3.  Each is [butterfly]'s arithmetic on the same inputs, so two
   stages run in one pass with the results of two single passes. *)
let[@inline] quad re im p h len w1r w1i w2r w2i w3r w3i =
  let p1 = p + h and p2 = p + len in
  let p3 = p2 + h in
  let r0 = FA.unsafe_get re p and i0 = FA.unsafe_get im p in
  let r1 = FA.unsafe_get re p1 and i1 = FA.unsafe_get im p1 in
  let r2 = FA.unsafe_get re p2 and i2 = FA.unsafe_get im p2 in
  let r3 = FA.unsafe_get re p3 and i3 = FA.unsafe_get im p3 in
  let vr = (r1 *. w1r) -. (i1 *. w1i) and vi = (r1 *. w1i) +. (i1 *. w1r) in
  let a1r = r0 -. vr and a1i = i0 -. vi in
  let a0r = r0 +. vr and a0i = i0 +. vi in
  let vr = (r3 *. w1r) -. (i3 *. w1i) and vi = (r3 *. w1i) +. (i3 *. w1r) in
  let a3r = r2 -. vr and a3i = i2 -. vi in
  let a2r = r2 +. vr and a2i = i2 +. vi in
  let vr = (a2r *. w2r) -. (a2i *. w2i) and vi = (a2r *. w2i) +. (a2i *. w2r) in
  FA.unsafe_set re p2 (a0r -. vr);
  FA.unsafe_set im p2 (a0i -. vi);
  FA.unsafe_set re p (a0r +. vr);
  FA.unsafe_set im p (a0i +. vi);
  let vr = (a3r *. w3r) -. (a3i *. w3i) and vi = (a3r *. w3i) +. (a3i *. w3r) in
  FA.unsafe_set re p3 (a1r -. vr);
  FA.unsafe_set im p3 (a1i -. vi);
  FA.unsafe_set re p1 (a1r +. vr);
  FA.unsafe_set im p1 (a1i +. vi)

(* The stage of span [len] over [lo, hi), twiddles from table [t]. *)
let stage_table re im lo hi len t =
  let half = len / 2 in
  let base = 2 * (half - 1) in
  let i = ref lo in
  while !i < hi do
    for k = 0 to half - 1 do
      let j = base + (2 * k) in
      butterfly re im (!i + k) (!i + k + half) (FA.unsafe_get t j)
        (FA.unsafe_get t (j + 1))
    done;
    i := !i + len
  done

(* The stages of span [len] and [2 len] over [lo, hi) in one pass. *)
let stages_table re im lo hi len t =
  let h = len / 2 in
  let b1 = 2 * (h - 1) and b2 = 2 * (len - 1) in
  let i = ref lo in
  while !i < hi do
    for k = 0 to h - 1 do
      let j1 = b1 + (2 * k) and j2 = b2 + (2 * k) in
      let j3 = j2 + len in
      quad re im (!i + k) h len (FA.unsafe_get t j1) (FA.unsafe_get t (j1 + 1))
        (FA.unsafe_get t j2) (FA.unsafe_get t (j2 + 1)) (FA.unsafe_get t j3)
        (FA.unsafe_get t (j3 + 1))
    done;
    i := !i + (2 * len)
  done

(* Every tabulated stage (span 2 .. hi - lo) of the block [lo, hi): the
   span-2 stage alone when the count is odd, the rest in pairs. *)
let table_stages re im lo hi t =
  let len = ref 2 in
  if log2 (hi - lo) land 1 = 1 then begin
    stage_table re im lo hi 2 t;
    len := 4
  end;
  while !len < hi - lo do
    stages_table re im lo hi !len t;
    len := !len * 4
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

(* The direct stages of span [len] and [2 len] in one pass: three
   recurrences, for w_len(k), w_2len(k) and w_2len(k + h), each stepped
   and re-anchored exactly as [stage_direct] steps the factor of that
   span and index (h is a multiple of 64, so k + h is anchored where k
   is). *)
let stages_direct re im n len sign =
  let h = len / 2 in
  let ang1 = sign *. 2.0 *. Float.pi /. float_of_int len in
  let ang2 = sign *. 2.0 *. Float.pi /. float_of_int (2 * len) in
  let s1r = cos ang1 and s1i = sin ang1 in
  let s2r = cos ang2 and s2i = sin ang2 in
  let i = ref 0 in
  while !i < n do
    let w1r = ref 1.0 and w1i = ref 0.0 in
    let w2r = ref 1.0 and w2i = ref 0.0 in
    let w3r = ref 1.0 and w3i = ref 0.0 in
    for k = 0 to h - 1 do
      if k land 63 = 0 then begin
        let a = ang1 *. float_of_int k in
        w1r := cos a;
        w1i := sin a;
        let a = ang2 *. float_of_int k in
        w2r := cos a;
        w2i := sin a;
        let a = ang2 *. float_of_int (k + h) in
        w3r := cos a;
        w3i := sin a
      end;
      quad re im (!i + k) h len !w1r !w1i !w2r !w2i !w3r !w3i;
      let nwr = (!w1r *. s1r) -. (!w1i *. s1i) in
      w1i := (!w1r *. s1i) +. (!w1i *. s1r);
      w1r := nwr;
      let nwr = (!w2r *. s2r) -. (!w2i *. s2i) in
      w2i := (!w2r *. s2i) +. (!w2i *. s2r);
      w2r := nwr;
      let nwr = (!w3r *. s2r) -. (!w3i *. s2i) in
      w3i := (!w3r *. s2i) +. (!w3i *. s2r);
      w3r := nwr
    done;
    i := !i + (2 * len)
  done

(* The uncounted core on an already-checked length [n].  Overlap_add
   calls it directly: the telemetry histogram boxes its observation,
   and the convolver sits on the allocation-free streaming path.  The
   tabulated stages run one [table_max]-point block at a time (128 KB
   of re and im, in L2), all of them while the block is in cache: a
   butterfly reads only points of its own block, so blocking reorders
   butterflies without changing any of their inputs.  The direct
   stages follow over the whole array, the first alone when their
   count is odd, the rest in pairs. *)
let transform ~sign re im n =
  if n > 1 then begin
    let l = log2 n in
    bit_reverse re l;
    bit_reverse im l;
    let t = if sign < 0.0 then forward_twiddles else inverse_twiddles in
    let block = if n < table_max then n else table_max in
    let lo = ref 0 in
    while !lo < n do
      table_stages re im !lo (!lo + block) t;
      lo := !lo + block
    done;
    let len = ref (2 * block) in
    if (l - log2 block) land 1 = 1 then begin
      stage_direct re im n !len sign;
      len := !len * 2
    end;
    while !len < n do
      stages_direct re im n !len sign;
      len := !len * 4
    done
  end

let scale x n =
  let inv = 1.0 /. float_of_int n in
  for i = 0 to n - 1 do
    FA.unsafe_set x i (FA.unsafe_get x i *. inv)
  done

(* The real part of the scaled inverse, for callers that drop the
   imaginary part: [im] is left unscaled. *)
let inverse_real re im n =
  transform ~sign:1.0 re im n;
  scale re n

let inverse_scaled re im n =
  inverse_real re im n;
  scale im n

(* Bins k and m - k of the split step (m = n/2, 0 < k < m/2), with
   w = (c, s) = e^{2 pi i k/n}.  A real n-point signal x has even and
   odd m-point spectra E_k = (X_k + conj X_{m-k}) / 2 and
   O_k = w (X_k - conj X_{m-k}) / 2, so the m-point inverse of
   Z_k = E_k + i O_k interleaves x: z_j = x_{2j} + i x_{2j+1}.  The
   sums and differences are scaled by [inv] = 1/n, the inverse's 1/m
   and the halves together; a power of two, so the scaling is exact. *)
let[@inline] split_pair re im m inv k c s =
  let q = m - k in
  let ar = FA.unsafe_get re k and ai = FA.unsafe_get im k in
  let br = FA.unsafe_get re q and bi = FA.unsafe_get im q in
  let er = (ar +. br) *. inv and ei = (ai -. bi) *. inv in
  let dr = (ar -. br) *. inv and di = (ai +. bi) *. inv in
  let tr = (c *. di) +. (s *. dr) and ti = (c *. dr) -. (s *. di) in
  FA.unsafe_set re k (er -. tr);
  FA.unsafe_set im k (ei +. ti);
  FA.unsafe_set re q (er +. tr);
  FA.unsafe_set im q (ti -. ei)

(* The split step over all m = n/2 points, in place.  The DC and
   Nyquist bins are real and pair at k = 0; bin m/2 pairs with itself
   (w = i), giving Z = 2 conj X exactly.  The twiddles e^{2 pi i k/n}
   are stepped and re-anchored as [stage_direct] steps them. *)
let split re im n =
  let m = n / 2 and inv = 1.0 /. float_of_int n in
  let x0 = FA.unsafe_get re 0 and xm = FA.unsafe_get re m in
  FA.unsafe_set re 0 ((x0 +. xm) *. inv);
  FA.unsafe_set im 0 ((x0 -. xm) *. inv);
  if m >= 2 then begin
    let h = m / 2 and inv2 = 2.0 *. inv in
    FA.unsafe_set re h (FA.unsafe_get re h *. inv2);
    FA.unsafe_set im h (-.(FA.unsafe_get im h *. inv2));
    let ang = 2.0 *. Float.pi /. float_of_int n in
    let step_r = cos ang and step_i = sin ang in
    let wr = ref 1.0 and wi = ref 0.0 in
    for k = 0 to h - 1 do
      if k land 63 = 0 then begin
        let a = ang *. float_of_int k in
        wr := cos a;
        wi := sin a
      end;
      if k > 0 then split_pair re im m inv k !wr !wi;
      let nwr = (!wr *. step_r) -. (!wi *. step_i) in
      wi := (!wr *. step_i) +. (!wi *. step_r);
      wr := nwr
    done
  end

(* x_{2j} = Re z_j and x_{2j + 1} = Im z_j into [re], from the top
   down: slots 2j and 2j + 1 hold no z_i still to be read. *)
let interleave re im m =
  for j = m - 1 downto 0 do
    FA.unsafe_set re ((2 * j) + 1) (FA.unsafe_get im j);
    FA.unsafe_set re (2 * j) (FA.unsafe_get re j)
  done

let count n =
  if !Tm.on then begin
    Tm.Counter.incr fft_total;
    Tm.Hist.observe fft_size (float_of_int n)
  end

let inverse_hermitian ~re ~im =
  let n = FA.length re in
  if not (is_pow2 n) then invalid_arg "Fft: length not a power of two";
  if FA.length im <> (n / 2) + 1 then
    invalid_arg "Fft.inverse_hermitian: im length <> n/2 + 1";
  count n;
  if n > 1 then begin
    let m = n / 2 in
    split re im n;
    transform ~sign:1.0 re im m;
    interleave re im m
  end

let forward_pow2 ~re ~im =
  let n = check_pow2 re im in
  count n;
  transform ~sign:(-1.0) re im n

let inverse_pow2 ~re ~im =
  let n = check_pow2 re im in
  count n;
  inverse_scaled re im n

let inverse_pow2_real ~re ~im =
  let n = check_pow2 re im in
  count n;
  inverse_real re im n

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


  let block t = t.block

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
    inverse_real xr xi m;
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
