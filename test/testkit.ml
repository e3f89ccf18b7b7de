(* Shared helpers for the alcotest suites. *)

let check_rel ~tol name expected actual =
  let ok =
    if expected = 0.0 then Float.abs actual <= tol
    else Float.abs ((actual -. expected) /. expected) <= tol
  in
  if not ok then
    Alcotest.failf "%s: expected %.8g within %.2g%% but got %.8g"
      name expected (tol *. 100.0) actual

let check_abs ~tol name expected actual =
  if Float.abs (actual -. expected) > tol then
    Alcotest.failf "%s: expected %.8g +- %.3g but got %.8g" name expected tol actual

let check_in_range name ~lo ~hi actual =
  if actual < lo || actual > hi then
    Alcotest.failf "%s: %.8g outside [%.8g, %.8g]" name actual lo hi

let check_true name cond = Alcotest.(check bool) name true cond
let check_false name cond = Alcotest.(check bool) name false cond

let rng ?(seed = 0x5EEDL) () = Ptrng_prng.Rng.create ~seed ()

(* [n] samples of a fresh noise source, as a plain array for the
   spectral and Allan estimators. *)
let source_samples config rng n =
  let buf = Float.Array.create n in
  Ptrng_noise.Source.fill (Ptrng_noise.Source.create config rng) buf;
  Array.init n (Float.Array.get buf)

(* The one-sided PSD h0 + hm1/f, in the form spectral synthesis takes. *)
let psd ?(h0 = 0.0) ?(hm1 = 0.0) () = { Ptrng_noise.Psd_model.h0; hm1; hm2 = 0.0 }

(* Minor-heap words allocated while [f] runs. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Digest of the %h renderings of [xs], in order: a change to any bit of
   any value changes it. *)
let float_digest xs =
  let b = Buffer.create 4096 in
  Seq.iter (fun x -> Buffer.add_string b (Printf.sprintf "%h" x)) xs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The same for int64 streams, in hex. *)
let int64_digest xs =
  let b = Buffer.create 4096 in
  Seq.iter (fun x -> Buffer.add_string b (Printf.sprintf "%Lx;" x)) xs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0
