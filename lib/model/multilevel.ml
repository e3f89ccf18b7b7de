type analysis = {
  pair : Ptrng_osc.Pair.t;
  n_periods : int;
  ideal_curve : Ptrng_measure.Variance_curve.point array;
  counter_curve : Ptrng_measure.Variance_curve.point array;
  fit : Ptrng_measure.Fit.t;
  counter_fit : Ptrng_measure.Fit.t option;
  extract : Ptrng_measure.Thermal_extract.t;
  growth_exponent : float * float;
}

let nominal_f0 (pair : Ptrng_osc.Pair.t) =
  (pair.osc1.Ptrng_osc.Oscillator.f0 +. pair.osc2.Ptrng_osc.Oscillator.f0) /. 2.0

module Span = Ptrng_telemetry.Span

(* Stream the simulation through the accumulators in fixed chunks: the
   resident set is three chunk buffers plus the accumulators (O(2 max N)
   for the jitter ring), instead of five trace-length arrays. *)
let stream_chunk = 8192

let characterize ?(n_periods = 1 lsl 20) ?n_grid ~rng pair =
  if n_periods < 1024 then invalid_arg "Multilevel.characterize: n_periods < 1024";
  Span.with_ ~name:"model.characterize" @@ fun () ->
  Span.set_attr "n_periods" (Ptrng_telemetry.Json.Int n_periods);
  let f0 = nominal_f0 pair in
  let ns =
    match n_grid with
    | Some g -> g
    | None -> Ptrng_measure.Variance_curve.log2_grid ~n_min:4 ~n_max:(n_periods / 32)
  in
  let module FA = Float.Array in
  let module Vc = Ptrng_measure.Variance_curve in
  let st =
    (* flicker_block = n_periods keeps the streamed flicker bit-identical
       to the batch synthesis (one spectral block spanning the trace). *)
    Span.with_ ~name:"simulate" (fun () ->
        Ptrng_osc.Pair.stream ~flicker_block:n_periods rng pair)
  in
  let jitter_acc = Vc.Jitter_acc.create ~f0 ns in
  let counter_acc = Vc.Counter_acc.create ~f0 ~ns in
  let p1 = FA.create stream_chunk in
  let p2 = FA.create stream_chunk in
  let jbuf = FA.create stream_chunk in
  Span.with_ ~name:"stream.accumulate" (fun () ->
      let pos = ref 0 in
      while !pos < n_periods do
        let len = min stream_chunk (n_periods - !pos) in
        Ptrng_osc.Pair.fill st ~p1 ~p2 ~len;
        for i = 0 to len - 1 do
          (* relative_jitter's op: j(k) = p1(k) - p2(k). *)
          FA.unsafe_set jbuf i (FA.unsafe_get p1 i -. FA.unsafe_get p2 i)
        done;
        Vc.Jitter_acc.feed jitter_acc jbuf ~len;
        Vc.Counter_acc.feed counter_acc ~p1 ~p2 ~len;
        pos := !pos + len
      done);
  let ideal_curve =
    Span.with_ ~name:"variance_curve.jitter" (fun () ->
        Vc.Jitter_acc.points jitter_acc)
  in
  let counter_curve =
    Span.with_ ~name:"variance_curve.counter" (fun () ->
        Vc.Counter_acc.points counter_acc)
  in
  let fit =
    Span.with_ ~name:"fit" (fun () -> Ptrng_measure.Fit.fit ~f0 ideal_curve)
  in
  let counter_fit =
    (* The realistic (integer-counter) extraction: below quantization
       saturation the error variance grows with N (drift regime) and
       would masquerade as a huge thermal term, so only the saturated
       region (drift >= ~1/4 count per window) supports the
       constant-floor model. *)
    let detuning =
      Float.abs
        (pair.osc1.Ptrng_osc.Oscillator.f0 -. pair.osc2.Ptrng_osc.Oscillator.f0)
      /. f0
    in
    let phase = Ptrng_measure.Fit.phase_of fit in
    let saturated =
      Array.of_list
        (List.filter
           (fun (p : Ptrng_measure.Variance_curve.point) ->
             Ptrng_measure.Quantization.drift_per_window ~phase ~f0 ~detuning ~n:p.n
             >= 0.25)
           (Array.to_list counter_curve))
    in
    if Array.length saturated >= 5 then
      Some (Ptrng_measure.Fit.fit ~with_floor:true ~f0 saturated)
    else None
  in
  let extract = Ptrng_measure.Thermal_extract.of_fit fit in
  let growth_exponent = Bienayme.growth_exponent ideal_curve in
  { pair; n_periods; ideal_curve; counter_curve; fit; counter_fit; extract;
    growth_exponent }
