type t = {
  gm : float;
  i_d : float;
  w : float;
  l : float;
  alpha : float;
  temp : float;
}

let create ~gm ~i_d ~w ~l ~alpha ?(temp = Constants.room_temperature) () =
  let check name v = if v <= 0.0 then invalid_arg ("Mosfet.create: non-positive " ^ name) in
  check "gm" gm;
  check "i_d" i_d;
  check "w" w;
  check "l" l;
  check "alpha" alpha;
  check "temp" temp;
  { gm; i_d; w; l; alpha; temp }

let thermal_psd m = 8.0 /. 3.0 *. Constants.boltzmann *. m.temp *. m.gm

let flicker_coefficient m =
  m.alpha *. Constants.boltzmann *. m.temp *. m.i_d *. m.i_d /. (m.w *. m.l *. m.l)

let flicker_psd m f =
  if f <= 0.0 then invalid_arg "Mosfet.flicker_psd: f <= 0";
  flicker_coefficient m /. f

let corner_frequency m = flicker_coefficient m /. thermal_psd m
