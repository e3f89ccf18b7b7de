type t = Xoshiro256.t

let create ~seed () = Xoshiro256.create ~seed

let bits64 = Xoshiro256.next

let float t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let float_pos t =
  (* 1 - u maps [0,1) to (0,1]. *)
  1.0 -. float t

let float_range t ~lo ~hi =
  if lo >= hi then invalid_arg "Rng.float_range: lo >= hi";
  lo +. ((hi -. lo) *. float t)

let int_below t n =
  if n <= 0 then invalid_arg "Rng.int_below: n <= 0";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let limit = Int64.sub (Int64.div Int64.max_int n64) 1L in
  let bound = Int64.mul limit n64 in
  let rec draw () =
    let v = Int64.shift_right_logical (bits64 t) 1 in
    if v >= bound then draw () else Int64.to_int (Int64.rem v n64)
  in
  draw ()

let bool t = Int64.logand (bits64 t) 1L = 1L

let xoshiro_state t = t

let split t = create ~seed:(bits64 t) ()

let[@inline] derive_seed root index =
  if index < 0 then invalid_arg "Rng.derive_seed: negative index";
  (* Two SplitMix64 outputs of a state perturbed by the stream index:
     a stateless, well-scrambled child seed, so chunk [index] of a
     parallel computation gets the same stream no matter which domain
     (or how many domains) runs it. *)
  let golden = 0x9E3779B97F4A7C15L in
  let s =
    Splitmix64.create
      (Int64.logxor root (Int64.mul golden (Int64.of_int (index + 1))))
  in
  let _ = Splitmix64.next s in
  Splitmix64.next s

let child ~root ~index () = create ~seed:(derive_seed root index) ()
