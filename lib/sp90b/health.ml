let rct_cutoff ?(alpha_exp = 30) ~h () =
  if h <= 0.0 || h > 1.0 then invalid_arg "Health.rct_cutoff: h outside (0,1]";
  if alpha_exp <= 0 then invalid_arg "Health.rct_cutoff: alpha_exp <= 0";
  1 + int_of_float (Float.ceil (float_of_int alpha_exp /. h))

let apt_cutoff ?(alpha_exp = 30) ?(window = 1024) ~h () =
  if h <= 0.0 || h > 1.0 then invalid_arg "Health.apt_cutoff: h outside (0,1]";
  if window < 64 then invalid_arg "Health.apt_cutoff: window < 64";
  let p = 2.0 ** -.h in
  let log_alpha = -.float_of_int alpha_exp *. log 2.0 in
  (* Exact binomial upper tail in log space, scanned from the top. *)
  let logp = log p and logq = log (1.0 -. p) in
  let log_choose n k =
    Ptrng_stats.Special.log_gamma (float_of_int (n + 1))
    -. Ptrng_stats.Special.log_gamma (float_of_int (k + 1))
    -. Ptrng_stats.Special.log_gamma (float_of_int (n - k + 1))
  in
  let log_pmf k =
    log_choose window k +. (float_of_int k *. logp)
    +. (float_of_int (window - k) *. logq)
  in
  (* tail(c) = sum_{k >= c} pmf(k); find the smallest c with
     tail(c) <= alpha by accumulating downward from k = window. *)
  let tail = ref neg_infinity in
  let log_add a b =
    if a = neg_infinity then b
    else if b = neg_infinity then a
    else begin
      let hi = Float.max a b in
      hi +. log (exp (a -. hi) +. exp (b -. hi))
    end
  in
  let cutoff = ref (window + 1) in
  (try
     for k = window downto 0 do
       tail := log_add !tail (log_pmf k);
       if !tail > log_alpha then begin
         cutoff := k + 1;
         raise Exit
       end
     done
   with Exit -> ());
  !cutoff

(* [current]/[reference] below use an int encoding (-1 = none,
   0 = false, 1 = true) rather than [bool option]: the feed path runs
   once per raw bit, and a [Some] store there is a heap block per
   state transition (R7). *)
let[@inline] flag_of_bool b = if b then 1 else 0

type rct = { cutoff : int; mutable current : int; mutable count : int }

let rct_create ~cutoff =
  if cutoff < 2 then invalid_arg "Health.rct_create: cutoff < 2";
  { cutoff; current = -1; count = 0 }

let rct_feed t sample =
  let s = flag_of_bool sample in
  if t.current = s then t.count <- t.count + 1
  else begin
    t.current <- s;
    t.count <- 1
  end;
  t.count >= t.cutoff

type apt = {
  a_cutoff : int;
  window : int;
  mutable reference : int;  (* -1 = awaiting a reference bit *)
  mutable seen : int;
  mutable matches : int;
}

let apt_create ~cutoff ~window =
  if cutoff < 2 || cutoff > window then invalid_arg "Health.apt_create: bad cutoff";
  { a_cutoff = cutoff; window; reference = -1; seen = 0; matches = 0 }

let apt_feed t sample =
  if t.reference < 0 then begin
    t.reference <- flag_of_bool sample;
    t.seen <- 1;
    t.matches <- 1;
    false
  end
  else begin
    t.seen <- t.seen + 1;
    if flag_of_bool sample = t.reference then t.matches <- t.matches + 1;
    if t.seen >= t.window then begin
      let alarm = t.matches >= t.a_cutoff in
      t.reference <- -1;
      alarm
    end
    else false
  end

module Tm = Ptrng_telemetry.Registry

let samples_scanned_total =
  Tm.Counter.v ~help:"Bits fed through the continuous RCT/APT health scan."
    "ptrng_sp90b_health_samples_total"

let rct_alarms_total =
  Tm.Counter.v ~help:"Repetition-count health-test alarms raised by scan."
    "ptrng_sp90b_rct_alarms_total"

let apt_alarms_total =
  Tm.Counter.v ~help:"Adaptive-proportion health-test alarms raised by scan."
    "ptrng_sp90b_apt_alarms_total"

(* The combined continuous monitor: one RCT and one APT over the same
   stream, with the telemetry counters fed per sample or per run — the
   code shared by the batch [scan] below and the live [Ptrng_monitor]
   subsystem (a long-running daemon must not wait for a batch boundary
   to expose its alarm totals). *)

type monitor = {
  m_rct : rct;
  m_apt : apt;
  mutable m_samples : int;
  mutable m_rct_alarms : int;
  mutable m_apt_alarms : int;
}

let monitor_create ~cutoff_rct ~cutoff_apt ~window =
  {
    m_rct = rct_create ~cutoff:cutoff_rct;
    m_apt = apt_create ~cutoff:cutoff_apt ~window;
    m_samples = 0;
    m_rct_alarms = 0;
    m_apt_alarms = 0;
  }

let monitor_of_entropy ?alpha_exp ?(window = 1024) ~h () =
  let cutoff_rct = rct_cutoff ?alpha_exp ~h () in
  let cutoff_apt = apt_cutoff ?alpha_exp ~window ~h () in
  monitor_create ~cutoff_rct ~cutoff_apt ~window

(* Bit 0 = RCT alarm, bit 1 = APT alarm: an int, so the per-bit feed
   allocates nothing (R7). *)
let monitor_feed_flags t sample =
  let rct_alarm = rct_feed t.m_rct sample in
  let apt_alarm = apt_feed t.m_apt sample in
  t.m_samples <- t.m_samples + 1;
  if rct_alarm then t.m_rct_alarms <- t.m_rct_alarms + 1;
  if apt_alarm then t.m_apt_alarms <- t.m_apt_alarms + 1;
  if !Tm.on then begin
    Tm.Counter.incr samples_scanned_total;
    if rct_alarm then Tm.Counter.incr rct_alarms_total;
    if apt_alarm then Tm.Counter.incr apt_alarms_total
  end;
  (if rct_alarm then 1 else 0) lor (if apt_alarm then 2 else 0)

(* The RCT over a run with no branch on the bit value: a repeat keeps
   the count (mask all ones), a change restarts it at 1 (mask 0). *)
let rct_run t bs ~pos ~len =
  let current = ref t.current and count = ref t.count and alarms = ref 0 in
  let cutoff = t.cutoff in
  for i = pos to pos + len - 1 do
    let s = Bool.to_int (Array.unsafe_get bs i) in
    count := (!count land -Bool.to_int (s = !current)) + 1;
    current := s;
    alarms := !alarms + Bool.to_int (!count >= cutoff)
  done;
  t.current <- !current;
  t.count <- !count;
  !alarms

(* The APT over a run, one window segment at a time: the first bit of a
   window is its reference, the rest add their matches without a
   branch, and the cutoff is checked where a window closes. *)
let apt_run t bs ~pos ~len =
  let i = ref pos and stop = pos + len and alarms = ref 0 in
  while !i < stop do
    if t.reference < 0 then begin
      t.reference <- Bool.to_int (Array.unsafe_get bs !i);
      t.seen <- 1;
      t.matches <- 1;
      incr i
    end
    else begin
      let room = t.window - t.seen in
      let seg = if stop - !i < room then stop - !i else room in
      let reference = t.reference and matches = ref t.matches in
      for j = !i to !i + seg - 1 do
        matches :=
          !matches + Bool.to_int (Bool.to_int (Array.unsafe_get bs j) = reference)
      done;
      t.matches <- !matches;
      t.seen <- t.seen + seg;
      i := !i + seg;
      if t.seen >= t.window then begin
        alarms := !alarms + Bool.to_int (t.matches >= t.a_cutoff);
        t.reference <- -1
      end
    end
  done;
  !alarms

let monitor_feed_run t bs ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length bs - len then
    invalid_arg "Health.monitor_feed_run: range";
  let rct_alarms = rct_run t.m_rct bs ~pos ~len in
  let apt_alarms = apt_run t.m_apt bs ~pos ~len in
  t.m_samples <- t.m_samples + len;
  t.m_rct_alarms <- t.m_rct_alarms + rct_alarms;
  t.m_apt_alarms <- t.m_apt_alarms + apt_alarms;
  if !Tm.on then begin
    Tm.Counter.add samples_scanned_total len;
    Tm.Counter.add rct_alarms_total rct_alarms;
    Tm.Counter.add apt_alarms_total apt_alarms
  end;
  rct_alarms + apt_alarms

let monitor_samples t = t.m_samples
let monitor_alarms t = (t.m_rct_alarms, t.m_apt_alarms)

let scan ~cutoff_rct ~cutoff_apt ~window bits =
  let m = monitor_create ~cutoff_rct ~cutoff_apt ~window in
  ignore (monitor_feed_run m bits ~pos:0 ~len:(Array.length bits));
  monitor_alarms m
