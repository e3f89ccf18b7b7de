let fir_direct ~h x =
  let n = Array.length x and m = Array.length h in
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let acc = ref 0.0 in
    let kmax = min (m - 1) i in
    for k = 0 to kmax do
      acc := !acc +. (h.(k) *. x.(i - k))
    done;
    y.(i) <- !acc
  done;
  y

let remove_mean x =
  let n = Array.length x in
  if n = 0 then [||]
  else begin
    let mean = Array.fold_left ( +. ) 0.0 x /. float_of_int n in
    Array.map (fun v -> v -. mean) x
  end
