type t = { mutable state : int64 }

let create seed = { state = seed }

let golden_gamma = 0x9E3779B97F4A7C15L

(* [@inline] erases the boxed int64 return at hot call sites (the
   classic compiler unboxes int64 locals only within one body). *)
let[@inline] next t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)
