type phase = { b_th : float; b_fl : float }
type frac_freq = { h0 : float; hm1 : float; hm2 : float }

let check_f f = if f <= 0.0 then invalid_arg "Psd_model: f <= 0"

let phase_psd p f =
  check_f f;
  (p.b_fl /. (f *. f *. f)) +. (p.b_th /. (f *. f))

let frac_freq_of_phase ~f0 p =
  if f0 <= 0.0 then invalid_arg "Psd_model.frac_freq_of_phase: f0 <= 0";
  let f02 = f0 *. f0 in
  { h0 = 2.0 *. p.b_th /. f02; hm1 = 2.0 *. p.b_fl /. f02; hm2 = 0.0 }

let phase_of_frac_freq ~f0 y =
  if f0 <= 0.0 then invalid_arg "Psd_model.phase_of_frac_freq: f0 <= 0";
  let f02 = f0 *. f0 in
  { b_th = y.h0 *. f02 /. 2.0; b_fl = y.hm1 *. f02 /. 2.0 }

let thermal_period_jitter_var ~f0 p =
  if f0 <= 0.0 then invalid_arg "Psd_model.thermal_period_jitter_var: f0 <= 0";
  p.b_th /. (f0 *. f0 *. f0)

let corner_frequency p =
  if p.b_th <= 0.0 then invalid_arg "Psd_model.corner_frequency: b_th <= 0";
  p.b_fl /. p.b_th
