(* Per grid length N we rebuild the batch statistic incrementally: the
   S_N realization is the second difference of the cumulative jitter
   over 2N consecutive periods (S_process.realizations with stride
   2N), i.e. (sum of the second N periods) - (sum of the first N).
   Disjoint realizations land in a sliding Window per N.

   The per-slot state is struct-of-arrays — partial sums and completed
   first halves live in floatarrays, not in mutable float record fields
   — so the per-sample hot loop mutates unboxed cells and allocates
   nothing. *)

module FA = Float.Array

type t = {
  f0 : float;
  ns : int array;
  accs : FA.t;        (* partial sum of the current half, per slot *)
  filled : int array; (* samples in the current half, 0..n *)
  first_half : FA.t;  (* completed first-half sum; nan = none *)
  windows : Window.t array;
  min_realizations : int;
  mutable samples : int;
}

let default_ns = [| 16; 64; 256; 1024 |]

let create ?(ns = default_ns) ?(realizations = 128) ?(min_realizations = 16)
    ~f0 () =
  if Array.length ns = 0 then invalid_arg "Rn_estimator.create: empty grid";
  Array.iteri
    (fun i n ->
      if n <= 0 then invalid_arg "Rn_estimator.create: non-positive N";
      if i > 0 && n <= ns.(i - 1) then
        invalid_arg "Rn_estimator.create: grid not increasing")
    ns;
  if f0 <= 0.0 then invalid_arg "Rn_estimator.create: f0 <= 0";
  if min_realizations < 2 || min_realizations > realizations then
    invalid_arg "Rn_estimator.create: bad min_realizations";
  let k = Array.length ns in
  {
    f0;
    ns = Array.copy ns;
    accs = FA.make k 0.0;
    filled = Array.make k 0;
    first_half = FA.make k nan;
    windows =
      Array.init k (fun _ -> Window.create ~capacity:realizations);
    min_realizations;
    samples = 0;
  }

(* The unboxed per-sample update for slot [s]. *)
let feed_slot t s x =
  let acc = FA.unsafe_get t.accs s +. x in
  let filled = Array.unsafe_get t.filled s + 1 in
  if filled = Array.unsafe_get t.ns s then begin
    let first = FA.unsafe_get t.first_half s in
    if Float.is_nan first then FA.unsafe_set t.first_half s acc
    else begin
      Window.push (Array.unsafe_get t.windows s) (acc -. first);
      FA.unsafe_set t.first_half s nan
    end;
    FA.unsafe_set t.accs s 0.0;
    Array.unsafe_set t.filled s 0
  end
  else begin
    FA.unsafe_set t.accs s acc;
    Array.unsafe_set t.filled s filled
  end

let feed t x =
  if Float.is_finite x then begin
    t.samples <- t.samples + 1;
    for s = 0 to Array.length t.ns - 1 do
      feed_slot t s x
    done
  end

(* The end of a half for slot [s], out of line: the half's sum is read
   from [accs], and the realization is handed to its window through
   the same cell, so no float crosses a call. *)
let[@inline never] complete_half t s =
  let acc = FA.unsafe_get t.accs s in
  let first = FA.unsafe_get t.first_half s in
  if Float.is_nan first then FA.unsafe_set t.first_half s acc
  else begin
    FA.unsafe_set t.accs s (acc -. first);
    Window.push_from (Array.unsafe_get t.windows s) t.accs s;
    FA.unsafe_set t.first_half s nan
  end;
  FA.unsafe_set t.accs s 0.0;
  Array.unsafe_set t.filled s 0

(* [feed_many] runs the chunk once per group of four slots (then once
   per remaining slot).  Each run adds the finite samples from [i] on
   until [r] of them are in or the chunk ends, with the sums in locals
   and no call inside, so they stay in registers; it stores the sums
   and fill counts back and returns where it stopped.  Slots are
   independent and each one still adds the finite samples in stream
   order, so every sum is bitwise the one [feed] computes. *)

let run_four t buf ~len s i r =
  let accs = t.accs in
  let a0 = ref (FA.unsafe_get accs s) and a1 = ref (FA.unsafe_get accs (s + 1)) in
  let a2 = ref (FA.unsafe_get accs (s + 2)) and a3 = ref (FA.unsafe_get accs (s + 3)) in
  let i = ref i and m = ref 0 in
  while !m < r && !i < len do
    let x = FA.unsafe_get buf !i in
    if Float.is_finite x then begin
      a0 := !a0 +. x;
      a1 := !a1 +. x;
      a2 := !a2 +. x;
      a3 := !a3 +. x;
      incr m
    end;
    incr i
  done;
  FA.unsafe_set accs s !a0;
  FA.unsafe_set accs (s + 1) !a1;
  FA.unsafe_set accs (s + 2) !a2;
  FA.unsafe_set accs (s + 3) !a3;
  let filled = t.filled in
  Array.unsafe_set filled s (Array.unsafe_get filled s + !m);
  Array.unsafe_set filled (s + 1) (Array.unsafe_get filled (s + 1) + !m);
  Array.unsafe_set filled (s + 2) (Array.unsafe_get filled (s + 2) + !m);
  Array.unsafe_set filled (s + 3) (Array.unsafe_get filled (s + 3) + !m);
  !i

let run_one t buf ~len s i r =
  let a = ref (FA.unsafe_get t.accs s) in
  let i = ref i and m = ref 0 in
  while !m < r && !i < len do
    let x = FA.unsafe_get buf !i in
    if Float.is_finite x then begin
      a := !a +. x;
      incr m
    end;
    incr i
  done;
  FA.unsafe_set t.accs s !a;
  Array.unsafe_set t.filled s (Array.unsafe_get t.filled s + !m);
  !i

(* Finite samples left before slot [j]'s half ends. *)
let[@inline] room t j = Array.unsafe_get t.ns j - Array.unsafe_get t.filled j

let[@inline] close_if_full t j =
  if Array.unsafe_get t.filled j = Array.unsafe_get t.ns j then complete_half t j

(* [feed_four] and [feed_one] return the finite samples the chunk held. *)

let feed_four t buf ~len s =
  let i = ref 0 and fed = ref 0 in
  while !i < len do
    let r = room t s in
    let r = if room t (s + 1) < r then room t (s + 1) else r in
    let r = if room t (s + 2) < r then room t (s + 2) else r in
    let r = if room t (s + 3) < r then room t (s + 3) else r in
    let before = Array.unsafe_get t.filled s in
    i := run_four t buf ~len s !i r;
    fed := !fed + Array.unsafe_get t.filled s - before;
    close_if_full t s;
    close_if_full t (s + 1);
    close_if_full t (s + 2);
    close_if_full t (s + 3)
  done;
  !fed

let feed_one t buf ~len s =
  let i = ref 0 and fed = ref 0 in
  while !i < len do
    let before = Array.unsafe_get t.filled s in
    i := run_one t buf ~len s !i (room t s);
    fed := !fed + Array.unsafe_get t.filled s - before;
    close_if_full t s
  done;
  !fed

let feed_many t buf ~len =
  if len < 0 || len > FA.length buf then
    invalid_arg "Rn_estimator.feed_many: bad len";
  let k = Array.length t.ns in
  let fed = ref 0 and s = ref 0 in
  while !s + 4 <= k do
    fed := feed_four t buf ~len !s;
    s := !s + 4
  done;
  while !s < k do
    fed := feed_one t buf ~len !s;
    incr s
  done;
  t.samples <- t.samples + !fed

let samples t = t.samples

let points t =
  let pts = ref [] in
  for s = Array.length t.ns - 1 downto 0 do
    let w = t.windows.(s) in
    let neff = Window.count w in
    if neff >= t.min_realizations then begin
      let sigma2 = Window.variance w in
      let stderr =
        Ptrng_stats.Descriptive.standard_error_of_variance ~n:neff
          ~variance:sigma2
      in
      pts :=
        { Ptrng_measure.Variance_curve.n = t.ns.(s); sigma2;
          scaled = sigma2 *. t.f0 *. t.f0; neff; stderr }
        :: !pts
    end
  done;
  Array.of_list !pts

type estimate = {
  fit : Ptrng_measure.Fit.t;
  k : float;
  threshold_n : int;
}

let r_of_fit (fit : Ptrng_measure.Fit.t) n =
  let fn = float_of_int n in
  let thermal = fit.a *. fn in
  let total = thermal +. (fit.b *. fn *. fn) in
  if total <= 0.0 then 1.0
  else Float.min 1.0 (Float.max 0.0 (thermal /. total))

(* Every grid length must be ready: the flicker coefficient is pinned
   by the largest N, and a fit over the small-N prefix alone would
   report a wildly noisy (even negative) b during warm-up. *)
let estimate ?(confidence = 0.95) t =
  let pts = points t in
  if Array.length pts < Array.length t.ns || Array.length pts < 3 then None
  else begin
    let fit = Ptrng_measure.Fit.fit ~f0:t.f0 pts in
    if not (fit.a > 0.0) then None
    else begin
      let k = if fit.b > 0.0 then fit.a /. fit.b else infinity in
      let threshold_n =
        if Float.is_finite k then
          (* Largest N with k/(k+N) >= c, i.e. N <= k (1-c)/c. *)
          int_of_float (Float.floor (k *. (1.0 -. confidence) /. confidence))
        else max_int
      in
      Some { fit; k; threshold_n }
    end
  end

