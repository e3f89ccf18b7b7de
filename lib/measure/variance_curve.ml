module Tm = Ptrng_telemetry.Registry

let points_total =
  Tm.Counter.v ~help:"Variance-curve points estimated (one per accepted N)."
    "ptrng_measure_curve_points_total"

let curve_seconds =
  Tm.Hist.v ~help:"Wall time of one variance-curve construction." ~lo:1e-6
    ~hi:1e4 "ptrng_measure_curve_seconds"

type point = {
  n : int;
  sigma2 : float;
  scaled : float;
  neff : int;
  stderr : float;
}

let log2_grid ~n_min ~n_max =
  if n_min <= 0 || n_min > n_max then invalid_arg "Variance_curve.log2_grid: bad range";
  let rec collect acc n = if n > n_max then List.rev acc else collect (n :: acc) (n * 2) in
  Array.of_list (collect [] n_min)

let log_grid ~n_min ~n_max ~per_decade =
  if n_min <= 0 || n_min > n_max then invalid_arg "Variance_curve.log_grid: bad range";
  if per_decade <= 0 then invalid_arg "Variance_curve.log_grid: per_decade <= 0";
  let lo = log10 (float_of_int n_min) and hi = log10 (float_of_int n_max) in
  let steps = int_of_float (Float.ceil ((hi -. lo) *. float_of_int per_decade)) in
  let values = ref [] in
  for i = 0 to steps do
    let v = 10.0 ** (lo +. (float_of_int i *. (hi -. lo) /. float_of_int (max 1 steps))) in
    let n = max n_min (min n_max (int_of_float (Float.round v))) in
    match !values with
    | prev :: _ when prev = n -> ()
    | _ -> values := n :: !values
  done;
  Array.of_list (List.rev !values)

let point_of_samples ~f0 ~n ~neff s =
  let sigma2 = Ptrng_stats.Descriptive.variance s in
  let stderr =
    if neff >= 2 then
      Ptrng_stats.Descriptive.standard_error_of_variance ~n:neff ~variance:sigma2
    else Float.nan
  in
  { n; sigma2; scaled = sigma2 *. f0 *. f0; neff; stderr }

(* Each accepted N is an independent pass over the series, so the grid
   is a natural task list for the domain pool: one task per N, results
   reassembled in grid order (bit-identical for every domain count).
   The counter estimator stays sequential: its one caller outside tests
   (Online_test.run) passes a one-entry grid. *)

let of_jitter ?domains ?(overlapping = true) ~f0 ~ns jitter =
  if f0 <= 0.0 then invalid_arg "Variance_curve.of_jitter: f0 <= 0";
  Tm.Hist.time curve_seconds (fun () ->
      let len = Array.length jitter in
      Ptrng_exec.Pool.parallel_filter_map ?domains
        (fun n ->
          if n > 0 && len >= 2 * n then begin
            let stride = if overlapping then 1 else 2 * n in
            let s = S_process.realizations ~stride ~n jitter in
            let count = Array.length s in
            if count >= 2 then begin
              let neff = if overlapping then max 2 (count / (2 * n)) else count in
              Tm.Counter.incr points_total;
              Some (point_of_samples ~f0 ~n ~neff s)
            end
            else None
          end
          else None)
        ns)

let of_counters ~f0 ~ns edges1 edges2 =
  if f0 <= 0.0 then invalid_arg "Variance_curve.of_counters: f0 <= 0";
  Tm.Hist.time curve_seconds (fun () ->
      let cycles2 = Array.length edges2 - 1 in
      let point n =
        if n > 0 && cycles2 / n >= 3 then begin
          let s = Counter.s_realizations ~edges1 ~edges2 ~f0 ~n in
          if Array.length s >= 2 then begin
            (* Counter windows are disjoint, but adjacent differences share
               a window: halve the count for the error estimate. *)
            let neff = max 2 (Array.length s / 2) in
            Tm.Counter.incr points_total;
            Some (point_of_samples ~f0 ~n ~neff s)
          end
          else None
        end
        else None
      in
      Array.of_list (List.filter_map point (Array.to_list ns)))

(* ------------------------------------------------------------------ *)
(* Streaming accumulators                                              *)
(* ------------------------------------------------------------------ *)

module FA = Float.Array

(* Per-slot moment state lives in parallel int/float arrays, not in
   records with mutable float fields, so the per-sample updates never
   box.  The running variance is Welford's recurrence, spelled out at
   each accumulation site (a shared helper would box the realization
   argument on every call); the batch path uses a two-pass estimator,
   so streamed and batch sigma2 agree to rounding (~1e-12 relative),
   while the realization values themselves are bit-identical (the
   cumulative sums are the same op sequence). *)

let welford_variance ~counts ~m2s s =
  let cnt = counts.(s) in
  if cnt >= 2 then FA.get m2s s /. float_of_int (cnt - 1) else Float.nan

module Jitter_acc = struct
  let periods_total =
    Tm.Counter.v
      ~help:"Oscillator periods folded into streamed S_N realizations."
      "ptrng_measure_periods_accumulated_total"

  let realizations_total =
    Tm.Counter.v ~help:"S_N realizations folded by streaming accumulators."
      "ptrng_measure_realizations_total"

  type t = {
    f0 : float;
    overlapping : bool;
    ns : int array;
    ring : FA.t;   (* cumulative jitter c(0..total), power-of-two ring *)
    mask : int;
    csum : FA.t;   (* 1-cell running cumulative sum *)
    counts : int array;
    tm_counts : int array;  (* counts already reported to telemetry *)
    means : FA.t;
    m2s : FA.t;
    mutable total : int;
  }

  let create ?(overlapping = true) ~f0 ns =
    if f0 <= 0.0 then invalid_arg "Jitter_acc.create: f0 <= 0";
    if Array.length ns = 0 then invalid_arg "Jitter_acc.create: empty grid";
    Array.iter (fun n -> if n <= 0 then invalid_arg "Jitter_acc.create: n <= 0") ns;
    let n_max = Array.fold_left max 1 ns in
    let cap = Ptrng_signal.Fft.next_pow2 ((2 * n_max) + 1) in
    let k = Array.length ns in
    {
      f0;
      overlapping;
      ns = Array.copy ns;
      ring = FA.make cap 0.0;   (* ring.(0) = c(0) = 0 *)
      mask = cap - 1;
      csum = FA.make 1 0.0;
      counts = Array.make k 0;
      tm_counts = Array.make k 0;
      means = FA.make k 0.0;
      m2s = FA.make k 0.0;
      total = 0;
    }

  let total t = t.total

  let feed t buf ~len =
    if len < 0 || len > FA.length buf then invalid_arg "Jitter_acc.feed: bad len";
    let c = ref (FA.get t.csum 0) in
    let tt = ref t.total in
    let ring = t.ring and mask = t.mask in
    let ns = t.ns in
    let k = Array.length ns in
    let overlapping = t.overlapping in
    let counts = t.counts and means = t.means and m2s = t.m2s in
    for i = 0 to len - 1 do
      (* c(t) = c(t-1) + j(t-1): same op sequence as S_process.cumulative. *)
      c := !c +. FA.unsafe_get buf i;
      incr tt;
      FA.unsafe_set ring (!tt land mask) !c;
      for s = 0 to k - 1 do
        let n = Array.unsafe_get ns s in
        let n2 = 2 * n in
        if !tt >= n2 && (overlapping || !tt mod n2 = 0) then begin
          (* The batch realization (c(i+2n) - 2 c(i+n)) + c(i), i = t-2n. *)
          let v =
            (!c -. (2.0 *. FA.unsafe_get ring ((!tt - n) land mask)))
            +. FA.unsafe_get ring ((!tt - n2) land mask)
          in
          (* welford_update, spelled out: a call would box [v] — 16
             bytes times one realization per slot per sample. *)
          let cnt0 = Array.unsafe_get counts s in
          let mean = FA.unsafe_get means s in
          let d = v -. mean in
          let mean' = mean +. (d /. float_of_int (cnt0 + 1)) in
          FA.unsafe_set m2s s (FA.unsafe_get m2s s +. (d *. (v -. mean')));
          FA.unsafe_set means s mean';
          Array.unsafe_set counts s (cnt0 + 1)
        end
      done
    done;
    FA.set t.csum 0 !c;
    t.total <- !tt;
    if !Tm.on then
      for s = 0 to k - 1 do
        let delta = t.counts.(s) - t.tm_counts.(s) in
        if delta > 0 then begin
          Tm.Counter.add periods_total (delta * t.ns.(s));
          Tm.Counter.add realizations_total delta;
          t.tm_counts.(s) <- t.counts.(s)
        end
      done

  let points t =
    let pts = ref [] in
    for s = Array.length t.ns - 1 downto 0 do
      let n = t.ns.(s) in
      let count = t.counts.(s) in
      if t.total >= 2 * n && count >= 2 then begin
        let sigma2 = welford_variance ~counts:t.counts ~m2s:t.m2s s in
        let neff = if t.overlapping then max 2 (count / (2 * n)) else count in
        let stderr =
          if neff >= 2 then
            Ptrng_stats.Descriptive.standard_error_of_variance ~n:neff
              ~variance:sigma2
          else Float.nan
        in
        Tm.Counter.incr points_total;
        pts :=
          { n; sigma2; scaled = sigma2 *. t.f0 *. t.f0; neff; stderr } :: !pts
      end
    done;
    Array.of_list !pts
end

module Counter_acc = struct
  (* Same registered handle as Counter.windows_total (registration is
     idempotent by name); the .mli of [Counter] keeps it private. *)
  let windows_total =
    Tm.Counter.v
      ~help:"Counter windows measured (each spans N Osc2 cycles)."
      "ptrng_measure_counter_windows_total"

  (* A growable floatarray FIFO of pending edge times. *)
  type ring = {
    mutable buf : FA.t;
    mutable head : int;   (* masked index of the first element *)
    mutable count : int;
  }

  let ring_create cap =
    let cap = Ptrng_signal.Fft.next_pow2 (max 16 cap) in
    { buf = FA.create cap; head = 0; count = 0 }

  let ring_grow r =
    let cap = FA.length r.buf in
    let nbuf = FA.create (2 * cap) in
    let mask = cap - 1 in
    for i = 0 to r.count - 1 do
      FA.unsafe_set nbuf i (FA.unsafe_get r.buf ((r.head + i) land mask))
    done;
    r.buf <- nbuf;
    r.head <- 0

  let ring_push r x =
    if r.count = FA.length r.buf then ring_grow r;
    let mask = FA.length r.buf - 1 in
    FA.unsafe_set r.buf ((r.head + r.count) land mask) x;
    r.count <- r.count + 1

  let ring_head r = FA.unsafe_get r.buf (r.head)

  let ring_pop r =
    r.head <- (r.head + 1) land (FA.length r.buf - 1);
    r.count <- r.count - 1

  type t = {
    f0 : float;
    ns : int array;
    r1 : ring;
    r2 : ring;
    time1 : FA.t;  (* 1-cell cumulative osc1 time (last pushed edge) *)
    time2 : FA.t;
    mutable q : int;         (* osc1 edges consumed by the merge *)
    mutable periods2 : int;  (* osc2 periods fed *)
    rem : int array;         (* osc2 edges until each slot's boundary *)
    started : bool array;
    prev_q : int array;
    last_count : int array;
    has_last : bool array;
    closed : int array;
    tm_closed : int array;
    scount : int array;
    means : FA.t;
    m2s : FA.t;
    mutable finalized : bool;
  }

  let create ~f0 ~ns =
    if f0 <= 0.0 then invalid_arg "Counter_acc.create: f0 <= 0";
    if Array.length ns = 0 then invalid_arg "Counter_acc.create: empty grid";
    Array.iter (fun n -> if n <= 0 then invalid_arg "Counter_acc.create: n <= 0") ns;
    let k = Array.length ns in
    let t =
      {
        f0;
        ns = Array.copy ns;
        r1 = ring_create 16384;
        r2 = ring_create 16384;
        time1 = FA.make 1 0.0;
        time2 = FA.make 1 0.0;
        q = 0;
        periods2 = 0;
        rem = Array.make k 0;
        started = Array.make k false;
        prev_q = Array.make k 0;
        last_count = Array.make k 0;
        has_last = Array.make k false;
        closed = Array.make k 0;
        tm_closed = Array.make k 0;
        scount = Array.make k 0;
        means = FA.make k 0.0;
        m2s = FA.make k 0.0;
        finalized = false;
      }
    in
    (* The edge streams start with the shared t = 0 rising edge, as in
       Oscillator.edges_of_periods. *)
    ring_push t.r1 0.0;
    ring_push t.r2 0.0;
    t

  (* An osc2 edge arrives (in merged time order): window bookkeeping for
     every slot whose boundary this edge is.  Counts are differences of
     the shared monotone osc1-edge count q, so a boundary at time T
     charges an osc1 edge at exactly T to the next window — the batch
     path's strict [t < t_stop] counting. *)
  let osc2_edge t =
    let k = Array.length t.ns in
    for s = 0 to k - 1 do
      if Array.unsafe_get t.rem s = 0 then begin
        if Array.unsafe_get t.started s then begin
          let cnt = t.q - Array.unsafe_get t.prev_q s in
          Array.unsafe_set t.closed s (Array.unsafe_get t.closed s + 1);
          if Array.unsafe_get t.has_last s then begin
            let v =
              float_of_int (cnt - Array.unsafe_get t.last_count s) /. t.f0
            in
            (* welford_update, spelled out to keep [v] unboxed: small-N
               slots close a window every few samples. *)
            let cnt0 = Array.unsafe_get t.scount s in
            let mean = FA.unsafe_get t.means s in
            let d = v -. mean in
            let mean' = mean +. (d /. float_of_int (cnt0 + 1)) in
            FA.unsafe_set t.m2s s (FA.unsafe_get t.m2s s +. (d *. (v -. mean')));
            FA.unsafe_set t.means s mean';
            Array.unsafe_set t.scount s (cnt0 + 1)
          end;
          Array.unsafe_set t.last_count s cnt;
          Array.unsafe_set t.has_last s true
        end
        else Array.unsafe_set t.started s true;
        Array.unsafe_set t.prev_q s t.q;
        Array.unsafe_set t.rem s (Array.unsafe_get t.ns s)
      end;
      Array.unsafe_set t.rem s (Array.unsafe_get t.rem s - 1)
    done

  (* Drain every event whose global time order is settled: an osc2
     boundary can only close once an osc1 edge at the same or later
     time has been seen (osc1 edges are monotone). *)
  (* The two loops below spell out ring_head/ring_pop/ring_push: a call
     per edge would box the float crossing the boundary, and the merge
     visits every edge of both streams. *)
  let merge t =
    let r1 = t.r1 and r2 = t.r2 in
    while r1.count > 0 && r2.count > 0 do
      let h1 = FA.unsafe_get r1.buf r1.head in
      let h2 = FA.unsafe_get r2.buf r2.head in
      if h2 <= h1 then begin
        r2.head <- (r2.head + 1) land (FA.length r2.buf - 1);
        r2.count <- r2.count - 1;
        osc2_edge t
      end
      else begin
        r1.head <- (r1.head + 1) land (FA.length r1.buf - 1);
        r1.count <- r1.count - 1;
        t.q <- t.q + 1
      end
    done

  let feed t ~p1 ~p2 ~len =
    if t.finalized then invalid_arg "Counter_acc.feed: already finalized";
    if len < 0 || len > FA.length p1 || len > FA.length p2 then
      invalid_arg "Counter_acc.feed: bad len";
    let r1 = t.r1 and r2 = t.r2 in
    let tm1 = ref (FA.get t.time1 0) and tm2 = ref (FA.get t.time2 0) in
    for i = 0 to len - 1 do
      (* Same op sequence as edges_of_periods: e(k+1) = e(k) + p(k). *)
      tm1 := !tm1 +. FA.unsafe_get p1 i;
      if r1.count = FA.length r1.buf then ring_grow r1;
      FA.unsafe_set r1.buf
        ((r1.head + r1.count) land (FA.length r1.buf - 1))
        !tm1;
      r1.count <- r1.count + 1;
      tm2 := !tm2 +. FA.unsafe_get p2 i;
      if r2.count = FA.length r2.buf then ring_grow r2;
      FA.unsafe_set r2.buf
        ((r2.head + r2.count) land (FA.length r2.buf - 1))
        !tm2;
      r2.count <- r2.count + 1
    done;
    FA.set t.time1 0 !tm1;
    FA.set t.time2 0 !tm2;
    t.periods2 <- t.periods2 + len;
    merge t;
    if !Tm.on then
      for s = 0 to Array.length t.ns - 1 do
        let delta = t.closed.(s) - t.tm_closed.(s) in
        if delta > 0 then begin
          Tm.Counter.add windows_total delta;
          t.tm_closed.(s) <- t.closed.(s)
        end
      done

  (* Close out the stream exactly as the batch path truncates: windows
     whose end boundary falls after the last osc1 edge are dropped. *)
  let finalize t =
    if not t.finalized then begin
      t.finalized <- true;
      let t_limit = FA.get t.time1 0 in
      while t.r2.count > 0 && ring_head t.r2 <= t_limit do
        if t.r1.count > 0 && ring_head t.r1 < ring_head t.r2 then begin
          ring_pop t.r1;
          t.q <- t.q + 1
        end
        else begin
          ring_pop t.r2;
          osc2_edge t
        end
      done
    end

  let points t =
    finalize t;
    let pts = ref [] in
    for s = Array.length t.ns - 1 downto 0 do
      let n = t.ns.(s) in
      if t.periods2 / n >= 3 && t.scount.(s) >= 2 then begin
        let sigma2 = welford_variance ~counts:t.scount ~m2s:t.m2s s in
        let neff = max 2 (t.scount.(s) / 2) in
        let stderr =
          Ptrng_stats.Descriptive.standard_error_of_variance ~n:neff
            ~variance:sigma2
        in
        Tm.Counter.incr points_total;
        pts :=
          { n; sigma2; scaled = sigma2 *. t.f0 *. t.f0; neff; stderr } :: !pts
      end
    done;
    Array.of_list !pts
end
