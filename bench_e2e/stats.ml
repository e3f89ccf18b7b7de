(* Order statistics over measured samples. *)

(* Linear interpolation between the closest ranks (numpy's default), so
   [percentile xs 50.0] is the usual median; nan on no samples. *)
let percentile xs p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0
