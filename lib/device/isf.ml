type t = { samples : float array }

let of_function ?(samples = 1024) f =
  if samples < 8 then invalid_arg "Isf.of_function: need >= 8 samples";
  { samples = Array.init samples (fun i ->
        f (2.0 *. Float.pi *. float_of_int i /. float_of_int samples)) }

let triangle_lobe ~center ~height ~half_width x =
  let d = Float.abs (x -. center) in
  if d >= half_width then 0.0 else height *. (1.0 -. (d /. half_width))

let ring_oscillator ~stages ?(asymmetry = 0.1) () =
  if stages < 3 then invalid_arg "Isf.ring_oscillator: stages < 3";
  if asymmetry < 0.0 || asymmetry > 1.0 then
    invalid_arg "Isf.ring_oscillator: asymmetry outside [0,1]";
  let n = float_of_int stages in
  let height = Float.pi /. n in
  let half_width = Float.pi /. n in
  let rise_center = Float.pi /. n in
  let fall_center = Float.pi +. (Float.pi /. n) in
  of_function (fun x ->
      triangle_lobe ~center:rise_center ~height ~half_width x
      -. ((1.0 -. asymmetry)
          *. triangle_lobe ~center:fall_center ~height ~half_width x))

let gamma_rms t =
  let acc = Array.fold_left (fun a v -> a +. (v *. v)) 0.0 t.samples in
  sqrt (acc /. float_of_int (Array.length t.samples))

let gamma_dc t =
  Array.fold_left ( +. ) 0.0 t.samples /. float_of_int (Array.length t.samples)

let fourier_coefficient t m =
  if m < 0 then invalid_arg "Isf.fourier_coefficient: negative order";
  let n = Array.length t.samples in
  if m = 0 then 2.0 *. Float.abs (gamma_dc t)
  else begin
    let cr = ref 0.0 and ci = ref 0.0 in
    for i = 0 to n - 1 do
      let theta = 2.0 *. Float.pi *. float_of_int (m * i) /. float_of_int n in
      cr := !cr +. (t.samples.(i) *. cos theta);
      ci := !ci +. (t.samples.(i) *. sin theta)
    done;
    2.0 *. sqrt ((!cr *. !cr) +. (!ci *. !ci)) /. float_of_int n
  end

let eval t x =
  let n = Array.length t.samples in
  let two_pi = 2.0 *. Float.pi in
  let x = x -. (two_pi *. Float.floor (x /. two_pi)) in
  let pos = x /. two_pi *. float_of_int n in
  let i = int_of_float (Float.floor pos) in
  let frac = pos -. float_of_int i in
  let a = t.samples.(i mod n) and b = t.samples.((i + 1) mod n) in
  a +. (frac *. (b -. a))
