let ensemble ?domains rng cfg ~restarts ~n =
  if restarts <= 0 then invalid_arg "Restart.ensemble: restarts <= 0";
  if n <= 0 then invalid_arg "Restart.ensemble: n <= 0";
  (* The reproducible flicker transient: one trajectory, drawn once. *)
  let flicker_cfg =
    Oscillator.config ~f0:cfg.Oscillator.f0
      ~phase:{ cfg.Oscillator.phase with Ptrng_noise.Psd_model.b_th = 0.0 }
      ()
  in
  let transient =
    if cfg.Oscillator.phase.Ptrng_noise.Psd_model.b_fl > 0.0 then
      Oscillator.periods (Ptrng_prng.Rng.split rng) flicker_cfg ~n
    else Array.make n (1.0 /. cfg.Oscillator.f0)
  in
  let white = Ptrng_noise.Source.white ~sigma:(Oscillator.thermal_sigma cfg) in
  (* Thermal jitter is fresh on every restart: one white source per
     restart on its own child stream, so the ensemble is independent of
     the domain count. *)
  Ptrng_exec.Pool.parallel_map_streams ?domains ~rng
    (fun _ child ->
      let g = Float.Array.create n in
      Ptrng_noise.Source.fill (Ptrng_noise.Source.create white child) g;
      Array.init n (fun k -> transient.(k) +. Float.Array.get g k))
    restarts

let accumulated_variance runs ~n =
  let restarts = Array.length runs in
  if restarts < 2 then invalid_arg "Restart.accumulated_variance: need >= 2 restarts";
  if n <= 0 || n > Array.length runs.(0) then
    invalid_arg "Restart.accumulated_variance: n outside the simulated length";
  let sums =
    Array.map
      (fun periods ->
        let acc = ref 0.0 in
        for k = 0 to n - 1 do
          acc := !acc +. periods.(k)
        done;
        !acc)
      runs
  in
  Ptrng_stats.Descriptive.variance sums

let variance_curve runs ~ns =
  let len = if Array.length runs = 0 then 0 else Array.length runs.(0) in
  Array.to_list ns
  |> List.filter_map (fun n ->
         if n > 0 && n <= len then Some (n, accumulated_variance runs ~n) else None)
  |> Array.of_list

let growth_exponent curve =
  if Array.length curve < 3 then invalid_arg "Restart.growth_exponent: need >= 3 points";
  let x = Array.map (fun (n, _) -> log10 (float_of_int n)) curve in
  let y = Array.map (fun (_, v) -> log10 v) curve in
  (Ptrng_stats.Regression.linear ~x ~y).slope
