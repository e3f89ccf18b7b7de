(* Ziggurat tables (Marsaglia & Tsang 2000, 128 layers).

   f(x) = exp(-x^2/2) with abscissas x.(0) > x.(1) = r > ... > x.(128) = 0
   and heights y.(i) = f(x.(i)).  Layer i is the horizontal band between
   y.(i) and y.(i+1); every layer has area v; layer 0 is the base strip
   plus the tail beyond r.  The recurrence closes for the magic pair
   (r, v) below: it ends with y.(128) ~ 1 and x.(128) ~ 0. *)
let zig_r = 3.442619855899
let zig_v = 9.91256303526217e-3

let zig_x, zig_y =
  let n = 128 in
  let x = Array.make (n + 1) 0.0 and y = Array.make (n + 1) 0.0 in
  let f v = exp (-0.5 *. v *. v) in
  x.(1) <- zig_r;
  y.(1) <- f zig_r;
  x.(0) <- zig_v /. y.(1);
  y.(0) <- 0.0;
  for i = 1 to n - 1 do
    y.(i + 1) <- y.(i) +. (zig_v /. x.(i));
    x.(i + 1) <- (if y.(i + 1) >= 1.0 then 0.0 else sqrt (-2.0 *. log y.(i + 1)))
  done;
  (x, y)

let draw_tail rng =
  (* Marsaglia's exponential-rejection sampler for the normal tail x > r. *)
  let rec loop () =
    let x = -.log (Rng.float_pos rng) /. zig_r in
    let y = -.log (Rng.float_pos rng) in
    if y +. y >= x *. x then zig_r +. x else loop ()
  in
  loop ()

let rec draw rng =
  let i = Int64.to_int (Int64.logand (Rng.bits64 rng) 127L) in
  let u = (2.0 *. Rng.float rng) -. 1.0 in
  let z = u *. zig_x.(i) in
  let az = Float.abs z in
  if az < zig_x.(i + 1) then z
  else if i = 0 then
    let tail = draw_tail rng in
    if u < 0.0 then -.tail else tail
  else
    let y = zig_y.(i) +. (Rng.float rng *. (zig_y.(i + 1) -. zig_y.(i))) in
    if y < exp (-0.5 *. z *. z) then z else draw rng

let draw_scaled rng ~mu ~sigma = mu +. (sigma *. draw rng)

(* ------------------------------------------------------------------ *)
(* Bulk zero-allocation fill                                           *)
(* ------------------------------------------------------------------ *)

module FA = Float.Array

(* Small enough for the inliner, so the recurrence below runs on
   unboxed int64 locals. *)
let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* The ziggurat of [draw], draw-for-draw: every [xo_next] below is one
   Xoshiro256.next, consumed in the exact order of [draw]
   (index bits, then the uniform for u, then — on the slow branches —
   the tail / wedge uniforms), so a [fill_fa] stream is bit-identical
   to a [draw] loop on the same generator.  Keeping the whole sampler
   in one function body is what makes it allocation-free: the classic
   (non-flambda) compiler unboxes int64/float locals within a function
   but boxes every value that crosses a call boundary, which is ~800
   bytes per boxed-path draw once the Rng and Gaussian frames stack up. *)
let fill_fa_xoshiro xs ~sigma dst ~pos ~len =
  let st = Xoshiro256.state xs in
  let s0 = ref st.(0) and s1 = ref st.(1) and s2 = ref st.(2) in
  let s3 = ref st.(3) in
  for i = pos to pos + len - 1 do
    let z = ref 0.0 and accepted = ref false in
    while not !accepted do
      (* xo_next -> index bits *)
      let b_idx = Int64.add (rotl (Int64.add !s0 !s3) 23) !s0 in
      let tmp = Int64.shift_left !s1 17 in
      s2 := Int64.logxor !s2 !s0;
      s3 := Int64.logxor !s3 !s1;
      s1 := Int64.logxor !s1 !s2;
      s0 := Int64.logxor !s0 !s3;
      s2 := Int64.logxor !s2 tmp;
      s3 := rotl !s3 45;
      (* xo_next -> uniform for u *)
      let b_u = Int64.add (rotl (Int64.add !s0 !s3) 23) !s0 in
      let tmp = Int64.shift_left !s1 17 in
      s2 := Int64.logxor !s2 !s0;
      s3 := Int64.logxor !s3 !s1;
      s1 := Int64.logxor !s1 !s2;
      s0 := Int64.logxor !s0 !s3;
      s2 := Int64.logxor !s2 tmp;
      s3 := rotl !s3 45;
      let idx = Int64.to_int (Int64.logand b_idx 127L) in
      let u =
        (2.0 *. (Int64.to_float (Int64.shift_right_logical b_u 11) *. 0x1.0p-53))
        -. 1.0
      in
      let zz = u *. Array.unsafe_get zig_x idx in
      if Float.abs zz < Array.unsafe_get zig_x (idx + 1) then begin
        z := zz;
        accepted := true
      end
      else if idx = 0 then begin
        (* The tail sampler: float_pos, float_pos per attempt. *)
        let x = ref 0.0 and tail_done = ref false in
        while not !tail_done do
          let b1 = Int64.add (rotl (Int64.add !s0 !s3) 23) !s0 in
          let tmp = Int64.shift_left !s1 17 in
          s2 := Int64.logxor !s2 !s0;
          s3 := Int64.logxor !s3 !s1;
          s1 := Int64.logxor !s1 !s2;
          s0 := Int64.logxor !s0 !s3;
          s2 := Int64.logxor !s2 tmp;
          s3 := rotl !s3 45;
          let b2 = Int64.add (rotl (Int64.add !s0 !s3) 23) !s0 in
          let tmp = Int64.shift_left !s1 17 in
          s2 := Int64.logxor !s2 !s0;
          s3 := Int64.logxor !s3 !s1;
          s1 := Int64.logxor !s1 !s2;
          s0 := Int64.logxor !s0 !s3;
          s2 := Int64.logxor !s2 tmp;
          s3 := rotl !s3 45;
          let u1 =
            1.0
            -. (Int64.to_float (Int64.shift_right_logical b1 11) *. 0x1.0p-53)
          in
          let u2 =
            1.0
            -. (Int64.to_float (Int64.shift_right_logical b2 11) *. 0x1.0p-53)
          in
          let xx = -.log u1 /. zig_r in
          let y = -.log u2 in
          if y +. y >= xx *. xx then begin
            x := xx;
            tail_done := true
          end
        done;
        z := (if u < 0.0 then -.(zig_r +. !x) else zig_r +. !x);
        accepted := true
      end
      else begin
        (* Wedge test: one more uniform; on rejection fall through to a
           fresh ziggurat attempt, like the recursive [draw]. *)
        let b3 = Int64.add (rotl (Int64.add !s0 !s3) 23) !s0 in
        let tmp = Int64.shift_left !s1 17 in
        s2 := Int64.logxor !s2 !s0;
        s3 := Int64.logxor !s3 !s1;
        s1 := Int64.logxor !s1 !s2;
        s0 := Int64.logxor !s0 !s3;
        s2 := Int64.logxor !s2 tmp;
        s3 := rotl !s3 45;
        let y =
          Array.unsafe_get zig_y idx
          +. ((Int64.to_float (Int64.shift_right_logical b3 11) *. 0x1.0p-53)
             *. (Array.unsafe_get zig_y (idx + 1) -. Array.unsafe_get zig_y idx)
             )
        in
        if y < exp (-0.5 *. zz *. zz) then begin
          z := zz;
          accepted := true
        end
      end
    done;
    FA.unsafe_set dst i (sigma *. !z)
  done;
  st.(0) <- !s0;
  st.(1) <- !s1;
  st.(2) <- !s2;
  st.(3) <- !s3;
  Xoshiro256.restore xs st

(* [sigma] is a required label: an optional argument would make every
   hot caller build a [Some] block, and a defaulted one would split the
   currying chain into per-call closures. *)
let fill_fa rng ~sigma dst ~pos ~len =
  if len < 0 || pos < 0 || pos + len > FA.length dst then
    invalid_arg "Gaussian.fill_fa: bad range";
  fill_fa_xoshiro (Rng.xoshiro_state rng) ~sigma dst ~pos ~len
