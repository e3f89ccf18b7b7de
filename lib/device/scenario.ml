(* A scenario is a pure function of the period index: deterministic
   profiles for the three device coefficients plus a list of faults
   layered on top.  Evaluation writes into a caller-owned all-float
   state record so the oscillator hot loop can query the schedule once
   per sample without allocating. *)

type profile =
  | Const of float
  | Step of { at : int; before : float; after : float }
  | Ramp of { start : int; stop : int; from_ : float; to_ : float }
  | Sine of { period : int; mean : float; amplitude : float; phase : float }
  | Drift of { rate : float }

type fault =
  | Thermal_quench of { onset : int; duration : int; factor : float }
  | Supply_droop of { onset : int; duration : int; depth : float }
  | Tone_injection of {
      onset : int;
      duration : int;
      freq : float;
      amplitude : float;
    }
  | Coupling of { onset : int; duration : int; strength : float }

type t = {
  name : string;
  description : string;
  b_th : profile;
  b_fl : profile;
  f0 : profile;
  faults : fault list;
}

let forever = max_int

let check_profile what = function
  | Const v ->
    if not (v > 0.0 && Float.is_finite v) then
      invalid_arg (Printf.sprintf "Scenario.make: %s: Const not positive" what)
  | Step { at; before; after } ->
    if at < 0 then invalid_arg (Printf.sprintf "Scenario.make: %s: Step at < 0" what);
    if not (before > 0.0 && after > 0.0) then
      invalid_arg (Printf.sprintf "Scenario.make: %s: Step level not positive" what)
  | Ramp { start; stop; from_; to_ } ->
    if start < 0 || stop <= start then
      invalid_arg (Printf.sprintf "Scenario.make: %s: Ramp needs 0 <= start < stop" what);
    if not (from_ > 0.0 && to_ > 0.0) then
      invalid_arg (Printf.sprintf "Scenario.make: %s: Ramp level not positive" what)
  | Sine { period; mean; amplitude; phase = _ } ->
    if period <= 0 then
      invalid_arg (Printf.sprintf "Scenario.make: %s: Sine period <= 0" what);
    if not (amplitude >= 0.0 && mean -. amplitude > 0.0) then
      invalid_arg
        (Printf.sprintf "Scenario.make: %s: Sine needs 0 <= amplitude < mean" what)
  | Drift { rate } ->
    if not (Float.is_finite rate) then
      invalid_arg (Printf.sprintf "Scenario.make: %s: Drift rate not finite" what)

let check_fault = function
  | Thermal_quench { onset; duration; factor } ->
    if onset < 0 || duration <= 0 then
      invalid_arg "Scenario.make: Thermal_quench: bad onset/duration";
    if not (factor > 0.0 && factor <= 1.0) then
      invalid_arg "Scenario.make: Thermal_quench: factor outside (0,1]"
  | Supply_droop { onset; duration; depth } ->
    if onset < 0 || duration <= 0 then
      invalid_arg "Scenario.make: Supply_droop: bad onset/duration";
    if not (depth >= 0.0 && depth < 1.0) then
      invalid_arg "Scenario.make: Supply_droop: depth outside [0,1)"
  | Tone_injection { onset; duration; freq; amplitude } ->
    if onset < 0 || duration <= 0 then
      invalid_arg "Scenario.make: Tone_injection: bad onset/duration";
    if not (freq > 0.0 && freq <= 0.5) then
      invalid_arg "Scenario.make: Tone_injection: freq outside (0,0.5]";
    if not (amplitude >= 0.0 && Float.is_finite amplitude) then
      invalid_arg "Scenario.make: Tone_injection: negative amplitude"
  | Coupling { onset; duration; strength } ->
    if onset < 0 || duration <= 0 then
      invalid_arg "Scenario.make: Coupling: bad onset/duration";
    if not (strength >= 0.0 && strength < 1.0) then
      invalid_arg "Scenario.make: Coupling: strength outside [0,1)"

let make ?(b_th = Const 1.0) ?(b_fl = Const 1.0) ?(f0 = Const 1.0)
    ?(faults = []) ~name ~description () =
  if name = "" then invalid_arg "Scenario.make: empty name";
  check_profile "b_th" b_th;
  check_profile "b_fl" b_fl;
  check_profile "f0" f0;
  List.iter check_fault faults;
  { name; description; b_th; b_fl; f0; faults }

let name t = t.name
let description t = t.description

let two_pi = 2.0 *. Float.pi

(* [@inline]: called three times per sample from [eval]; without it
   every evaluation returns a boxed float across the call boundary. *)
let[@inline] eval_profile p k =
  match p with
  | Const v -> v
  | Step { at; before; after } -> if k < at then before else after
  | Ramp { start; stop; from_; to_ } ->
    if k <= start then from_
    else if k >= stop then to_
    else
      from_
      +. ((to_ -. from_) *. float_of_int (k - start) /. float_of_int (stop - start))
  | Sine { period; mean; amplitude; phase } ->
    mean +. (amplitude *. sin ((two_pi *. float_of_int k /. float_of_int period) +. phase))
  | Drift { rate } -> exp (rate *. float_of_int k)

(* The identity profile never moves a coefficient; everything else has
   a well-defined first sample at which the device departs from its
   calibration. *)
let profile_onset = function
  | Const v -> if v = 1.0 then None else Some 0
  | Step { at; before; after } -> if before = after then None else Some at
  | Ramp { start; from_; to_; _ } -> if from_ = to_ then None else Some start
  | Sine { amplitude; _ } -> if amplitude = 0.0 then None else Some 0
  | Drift { rate } -> if rate = 0.0 then None else Some 0

let fault_onset = function
  | Thermal_quench { onset; _ }
  | Supply_droop { onset; _ }
  | Tone_injection { onset; _ }
  | Coupling { onset; _ } -> Some onset

let onset t =
  let min_opt a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (min a b)
  in
  List.fold_left
    (fun acc f -> min_opt acc (fault_onset f))
    (min_opt
       (min_opt (profile_onset t.b_th) (profile_onset t.b_fl))
       (profile_onset t.f0))
    t.faults

type state = {
  mutable th_mult : float;
  mutable fl_mult : float;
  mutable f0_mult : float;
  mutable coupling : float;
  mutable tone : float;
}

let state () =
  { th_mult = 1.0; fl_mult = 1.0; f0_mult = 1.0; coupling = 0.0; tone = 0.0 }

(* Top-level so the per-sample evaluation allocates no closure. *)
let rec apply_faults st k = function
  | [] -> ()
  | f :: rest ->
    (match f with
    | Thermal_quench { onset; duration; factor } ->
      if k >= onset && k - onset < duration then
        st.th_mult <- st.th_mult *. factor
    | Supply_droop { onset; duration; depth } ->
      if k >= onset && k - onset < duration then begin
        let keep = 1.0 -. depth in
        st.f0_mult <- st.f0_mult *. keep;
        st.th_mult <- st.th_mult /. keep
      end
    | Tone_injection { onset; duration; freq; amplitude } ->
      if k >= onset && k - onset < duration then
        st.tone <-
          st.tone +. (amplitude *. sin (two_pi *. freq *. float_of_int (k - onset)))
    | Coupling { onset; duration; strength } ->
      if k >= onset && k - onset < duration && strength > st.coupling then
        (* if/else instead of Float.max: max re-boxes its result *)
        st.coupling <- strength);
    apply_faults st k rest

let eval t k st =
  st.th_mult <- eval_profile t.b_th k;
  st.fl_mult <- eval_profile t.b_fl k;
  st.f0_mult <- eval_profile t.f0 k;
  st.coupling <- 0.0;
  st.tone <- 0.0;
  apply_faults st k t.faults
