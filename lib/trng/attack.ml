let scale_config factor_th factor_fl (c : Ptrng_osc.Oscillator.config) ~f0 =
  let open Ptrng_noise.Psd_model in
  Ptrng_osc.Oscillator.config
    ~rw_hm2:c.rw_hm2
    ~f0
    ~phase:{ b_th = c.phase.b_th *. factor_th; b_fl = c.phase.b_fl *. factor_fl }
    ()

let frequency_injection ~lock_strength (pair : Ptrng_osc.Pair.t) =
  if lock_strength < 0.0 || lock_strength >= 1.0 then
    invalid_arg "Attack.frequency_injection: lock_strength outside [0,1)";
  let keep = 1.0 -. lock_strength in
  let f_locked =
    (pair.osc1.Ptrng_osc.Oscillator.f0 +. pair.osc2.Ptrng_osc.Oscillator.f0) /. 2.0
  in
  {
    Ptrng_osc.Pair.osc1 = scale_config keep keep pair.osc1 ~f0:f_locked;
    osc2 = scale_config keep keep pair.osc2 ~f0:f_locked;
  }

let thermal_quench ~factor (pair : Ptrng_osc.Pair.t) =
  if factor <= 0.0 || factor > 1.0 then
    invalid_arg "Attack.thermal_quench: factor outside (0,1]";
  {
    Ptrng_osc.Pair.osc1 =
      scale_config factor 1.0 pair.osc1 ~f0:pair.osc1.Ptrng_osc.Oscillator.f0;
    osc2 = scale_config factor 1.0 pair.osc2 ~f0:pair.osc2.Ptrng_osc.Oscillator.f0;
  }

type kind = No_attack | Quench | Inject

type t = { kind : kind; strength : float }

let kinds = [ ("none", No_attack); ("quench", Quench); ("inject", Inject) ]

let kind_name k = fst (List.find (fun (_, k') -> k' = k) kinds)

let kind_of_string s =
  Option.to_result (List.assoc_opt s kinds)
    ~none:(Printf.sprintf "unknown attack kind %S (expected none, quench or inject)" s)

let strength_of_string s =
  match float_of_string_opt s with
  | Some x when x >= 0.0 && x < 1.0 -> Ok x
  | _ -> Error (Printf.sprintf "attack strength %S is not a number in [0, 1)" s)

let make kind ~strength =
  if not (strength >= 0.0 && strength < 1.0) then
    invalid_arg "Attack.make: strength outside [0, 1)";
  { kind; strength = (if kind = No_attack then 0.0 else strength) }

(* The strength in the shortest %g form that reads back to the same
   float: 0.95 prints "0.95", as %g did, and 0.9512345 keeps its
   seventh digit. *)
let to_string t =
  let rec go p =
    let s = Printf.sprintf "%.*g" p t.strength in
    if p >= 17 || Float.equal (float_of_string s) t.strength then s else go (p + 1)
  in
  if t.kind = No_attack then "none" else kind_name t.kind ^ ":" ^ go 1

let of_string s =
  match String.split_on_char ':' s with
  | [ "none" ] -> Ok (make No_attack ~strength:0.0)
  | [ k; st ] when k <> "none" ->
    Result.bind (kind_of_string k) (fun kind ->
        Result.map (fun strength -> { kind; strength }) (strength_of_string st))
  | _ -> Error (Printf.sprintf "bad attack spec %S (expected none or <kind>:<strength>)" s)

let apply t pair =
  match t.kind with
  | No_attack -> pair
  | Quench -> thermal_quench ~factor:(1.0 -. t.strength) pair
  | Inject -> frequency_injection ~lock_strength:t.strength pair
