open Ptrng_prng

let draw_array rng n = Array.init n (fun _ -> Rng.float rng)

(* --- Splitmix64 --- *)

let splitmix_tests =
  [
    Testkit.case "deterministic for equal seeds" (fun () ->
        let a = Splitmix64.create 42L and b = Splitmix64.create 42L in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same stream" (Splitmix64.next a) (Splitmix64.next b)
        done);
    Testkit.case "different seeds give different streams" (fun () ->
        let a = Splitmix64.create 1L and b = Splitmix64.create 2L in
        let same = ref 0 in
        for _ = 1 to 64 do
          if Splitmix64.next a = Splitmix64.next b then incr same
        done;
        Testkit.check_true "almost surely disjoint" (!same = 0));
    Testkit.case "zero seed is fine" (fun () ->
        let t = Splitmix64.create 0L in
        Testkit.check_true "non-zero output" (Splitmix64.next t <> 0L));
    Testkit.case "known answers for seed 1234567" (fun () ->
        (* The reference algorithm (Steele, Lea, Flood 2014), computed
           independently of this code. *)
        let t = Splitmix64.create 1234567L in
        List.iter
          (fun expected ->
            Alcotest.(check string) "output" expected
              (Printf.sprintf "%Lu" (Splitmix64.next t)))
          [
            "6457827717110365317"; "3203168211198807973"; "9817491932198370423";
            "4593380528125082431"; "16408922859458223821";
          ]);
    Testkit.case "seeds the xoshiro256 state" (fun () ->
        (* Xoshiro256.create takes its four state words from the
           Splitmix64 stream of the seed. *)
        let sm = Splitmix64.create 31L in
        let words = Array.init 4 (fun _ -> Splitmix64.next sm) in
        let a = Xoshiro256.create ~seed:31L and b = Xoshiro256.of_state words in
        for _ = 1 to 32 do
          Alcotest.(check int64) "same stream" (Xoshiro256.next b) (Xoshiro256.next a)
        done);
    Testkit.case "output bits look balanced" (fun () ->
        let t = Splitmix64.create 99L in
        let ones = ref 0 in
        for _ = 1 to 1000 do
          let v = Splitmix64.next t in
          for b = 0 to 63 do
            if Int64.logand (Int64.shift_right_logical v b) 1L = 1L then incr ones
          done
        done;
        (* 64000 bits: expect 32000 +- ~5 sigma (sigma = 126.5). *)
        Testkit.check_in_range "ones count" ~lo:31350.0 ~hi:32650.0 (float_of_int !ones));
  ]

(* --- Xoshiro256++ --- *)

let xoshiro_tests =
  [
    Testkit.case "deterministic for equal seeds" (fun () ->
        let a = Xoshiro256.create ~seed:5L and b = Xoshiro256.create ~seed:5L in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same stream" (Xoshiro256.next a) (Xoshiro256.next b)
        done);
    Testkit.case "of_state rejects wrong length" (fun () ->
        Alcotest.check_raises "3 words"
          (Invalid_argument "Xoshiro256.of_state: need 4 words")
          (fun () -> ignore (Xoshiro256.of_state [| 1L; 2L; 3L |])));
    Testkit.case "of_state rejects all-zero" (fun () ->
        Alcotest.check_raises "zero state"
          (Invalid_argument "Xoshiro256.of_state: all-zero state is absorbing")
          (fun () -> ignore (Xoshiro256.of_state [| 0L; 0L; 0L; 0L |])));
    Testkit.case "different seeds give different streams" (fun () ->
        let a = Xoshiro256.create ~seed:1L and b = Xoshiro256.create ~seed:2L in
        let same = ref 0 in
        for _ = 1 to 64 do
          if Xoshiro256.next a = Xoshiro256.next b then incr same
        done;
        Alcotest.(check int) "no shared outputs" 0 !same);
    Testkit.case "state then of_state replays the stream" (fun () ->
        let t = Xoshiro256.create ~seed:9L in
        for _ = 1 to 17 do
          ignore (Xoshiro256.next t)
        done;
        let replay = Xoshiro256.of_state (Xoshiro256.state t) in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same draw" (Xoshiro256.next t) (Xoshiro256.next replay)
        done);
    Testkit.case "state is a copy" (fun () ->
        let t = Xoshiro256.create ~seed:9L and twin = Xoshiro256.create ~seed:9L in
        let s = Xoshiro256.state t in
        Array.fill s 0 4 1L;
        Alcotest.(check int64) "stream untouched" (Xoshiro256.next twin) (Xoshiro256.next t));
    Testkit.case "restore rewinds the stream" (fun () ->
        let t = Xoshiro256.create ~seed:12L in
        let saved = Xoshiro256.state t in
        let first = List.init 50 (fun _ -> Xoshiro256.next t) in
        Xoshiro256.restore t saved;
        let again = List.init 50 (fun _ -> Xoshiro256.next t) in
        Alcotest.(check (list int64)) "replayed" first again);
    Testkit.case "restore rejects bad states" (fun () ->
        let t = Xoshiro256.create ~seed:12L in
        Alcotest.check_raises "5 words"
          (Invalid_argument "Xoshiro256.restore: need 4 words")
          (fun () -> Xoshiro256.restore t (Array.make 5 1L));
        Alcotest.check_raises "zero state"
          (Invalid_argument "Xoshiro256.restore: all-zero state is absorbing")
          (fun () -> Xoshiro256.restore t (Array.make 4 0L)));
    Testkit.case "known answers from state 1, 2, 3, 4" (fun () ->
        (* The reference algorithm (Blackman, Vigna 2019), computed
           independently of this code. *)
        let t = Xoshiro256.of_state [| 1L; 2L; 3L; 4L |] in
        List.iter
          (fun expected ->
            Alcotest.(check string) "output" expected
              (Printf.sprintf "%Lu" (Xoshiro256.next t)))
          [
            "41943041"; "58720359"; "3588806011781223"; "3591011842654386";
            "9228616714210784205"; "9973669472204895162"; "14011001112246962877";
            "12406186145184390807"; "15849039046786891736"; "10450023813501588000";
          ]);
  ]

(* --- Rng facade --- *)

let rng_tests =
  [
    Testkit.qcheck "float is in [0,1)" QCheck2.Gen.int (fun seed ->
        let rng = Rng.create ~seed:(Int64.of_int seed) () in
        let v = Rng.float rng in
        v >= 0.0 && v < 1.0);
    Testkit.qcheck "float_pos is in (0,1]" QCheck2.Gen.int (fun seed ->
        let rng = Rng.create ~seed:(Int64.of_int seed) () in
        let v = Rng.float_pos rng in
        v > 0.0 && v <= 1.0);
    Testkit.qcheck "int_below stays in range"
      QCheck2.Gen.(pair int (int_range 1 1000))
      (fun (seed, n) ->
        let rng = Rng.create ~seed:(Int64.of_int seed) () in
        let v = Rng.int_below rng n in
        v >= 0 && v < n);
    Testkit.qcheck "float_range stays in [lo, hi)"
      QCheck2.Gen.(triple int (float_range (-1e3) 1e3) (float_range 1e-3 1e3))
      (fun (seed, lo, width) ->
        let rng = Rng.create ~seed:(Int64.of_int seed) () in
        let hi = lo +. width in
        let v = Rng.float_range rng ~lo ~hi in
        v >= lo && v < hi);
    Testkit.qcheck "float has 53-bit resolution" QCheck2.Gen.int (fun seed ->
        let rng = Rng.create ~seed:(Int64.of_int seed) () in
        let scaled = Rng.float rng *. 0x1.0p53 in
        Float.is_integer scaled);
    Testkit.case "equal seeds give equal streams" (fun () ->
        let a = Rng.create ~seed:77L () and b = Rng.create ~seed:77L () in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same draw" (Rng.bits64 a) (Rng.bits64 b)
        done);
    Testkit.case "draws the xoshiro256 stream of its seed" (fun () ->
        let rng = Rng.create ~seed:2014L () and x = Xoshiro256.create ~seed:2014L in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same draw" (Xoshiro256.next x) (Rng.bits64 rng)
        done);
    Testkit.case "xoshiro_state shares the stream" (fun () ->
        let rng = Rng.create ~seed:3L () and twin = Rng.create ~seed:3L () in
        let x = Rng.xoshiro_state rng in
        for _ = 1 to 10 do
          Alcotest.(check int64) "via state" (Rng.bits64 twin) (Xoshiro256.next x)
        done;
        Alcotest.(check int64) "rng resumes after the state draws" (Rng.bits64 twin)
          (Rng.bits64 rng));
    Testkit.case "int_below rejects non-positive bound" (fun () ->
        Alcotest.check_raises "n = 0" (Invalid_argument "Rng.int_below: n <= 0")
          (fun () -> ignore (Rng.int_below (Testkit.rng ()) 0)));
    Testkit.case "float_range rejects empty interval" (fun () ->
        Alcotest.check_raises "lo >= hi" (Invalid_argument "Rng.float_range: lo >= hi")
          (fun () -> ignore (Rng.float_range (Testkit.rng ()) ~lo:1.0 ~hi:1.0)));
    Testkit.case "int_below is uniform (chi2)" (fun () ->
        let rng = Testkit.rng () in
        let buckets = 16 and draws = 160000 in
        let observed = Array.make buckets 0 in
        for _ = 1 to draws do
          let v = Rng.int_below rng buckets in
          observed.(v) <- observed.(v) + 1
        done;
        let expected = Array.make buckets (float_of_int draws /. float_of_int buckets) in
        let r = Ptrng_stats.Tests.chi2_gof ~observed ~expected () in
        Testkit.check_true "uniform at 0.1%" (r.p_value > 0.001));
    Testkit.case "bool is fair" (fun () ->
        let rng = Testkit.rng () in
        let heads = ref 0 in
        let n = 100000 in
        for _ = 1 to n do
          if Rng.bool rng then incr heads
        done;
        (* 5 sigma band around n/2. *)
        Testkit.check_in_range "heads" ~lo:49200.0 ~hi:50800.0 (float_of_int !heads));
    Testkit.case "split yields a decorrelated stream" (fun () ->
        let rng = Testkit.rng () in
        let child = Rng.split rng in
        let a = draw_array rng 5000 and b = draw_array child 5000 in
        let mixed = Array.init 5000 (fun i -> a.(i) -. b.(i)) in
        (* Difference of independent U(0,1) has variance 1/6. *)
        Testkit.check_rel ~tol:0.1 "variance of difference" (1.0 /. 6.0)
          (Ptrng_stats.Descriptive.variance mixed));
    Testkit.case "split is deterministic" (fun () ->
        let a = Rng.create ~seed:8L () and b = Rng.create ~seed:8L () in
        let ca = Rng.split a and cb = Rng.split b in
        for _ = 1 to 100 do
          Alcotest.(check int64) "child" (Rng.bits64 ca) (Rng.bits64 cb)
        done;
        Alcotest.(check int64) "parent" (Rng.bits64 a) (Rng.bits64 b));
    Testkit.case "child is create on derive_seed" (fun () ->
        List.iter
          (fun index ->
            let c = Rng.child ~root:99L ~index () in
            let r = Rng.create ~seed:(Rng.derive_seed 99L index) () in
            for _ = 1 to 8 do
              Alcotest.(check int64) "same draw" (Rng.bits64 r) (Rng.bits64 c)
            done)
          [ 0; 1; 2; 1000; 1 lsl 30 ]);
    Testkit.case "derive_seed gives one seed per root and index" (fun () ->
        let seen = Hashtbl.create 8192 in
        List.iter
          (fun root ->
            for index = 0 to 4095 do
              Hashtbl.replace seen (Rng.derive_seed root index) ()
            done)
          [ 0L; 1L ];
        Alcotest.(check int) "distinct seeds" 8192 (Hashtbl.length seen));
    Testkit.case "derive_seed rejects a negative index" (fun () ->
        Alcotest.check_raises "index -1"
          (Invalid_argument "Rng.derive_seed: negative index")
          (fun () -> ignore (Rng.derive_seed 1L (-1))));
    Testkit.case "neighbouring child streams are decorrelated" (fun () ->
        let a = draw_array (Rng.child ~root:5L ~index:0 ()) 5000
        and b = draw_array (Rng.child ~root:5L ~index:1 ()) 5000 in
        let mixed = Array.init 5000 (fun i -> a.(i) -. b.(i)) in
        Testkit.check_rel ~tol:0.1 "variance of difference" (1.0 /. 6.0)
          (Ptrng_stats.Descriptive.variance mixed));
    (* Pinned digests of the streams every simulation draws from. *)
    Testkit.case "child streams are pinned" (fun () ->
        let draws =
          Seq.concat_map
            (fun index ->
              let r = Rng.child ~root:2014L ~index () in
              List.to_seq (List.init 8 (fun _ -> Rng.bits64 r)))
            (Seq.init 64 Fun.id)
        in
        Alcotest.(check string) "digest" "440e358eefd316a9f796a4cd6fcc54a4"
          (Testkit.int64_digest draws));
    Testkit.case "split streams are pinned" (fun () ->
        let rng = Rng.create ~seed:7L () in
        let draws =
          List.concat
            (List.init 64 (fun _ ->
                 let c = Rng.split rng in
                 let c1 = Rng.bits64 c in
                 let c2 = Rng.bits64 c in
                 let r = Rng.bits64 rng in
                 [ c1; c2; r ]))
        in
        Alcotest.(check string) "digest" "4ffe962d75df39ce8d0b3072a0154826"
          (Testkit.int64_digest (List.to_seq draws)));
    Testkit.case "int_below is pinned, rejections included" (fun () ->
        let rng = Rng.create ~seed:11L () in
        (* max_int rejects about half of all draws. *)
        let bounds = [| 1; 2; 3; 7; 1000; 1 lsl 40; max_int / 3 * 2; max_int |] in
        let draws =
          List.init 4096 (fun i ->
              Int64.of_int (Rng.int_below rng bounds.(i mod Array.length bounds)))
        in
        Alcotest.(check string) "digest" "51127d29e2ed5e6f37ab1e49064dd880"
          (Testkit.int64_digest (List.to_seq draws)));
  ]

(* --- Gaussian sampling --- *)

let gaussian_moments =
  Testkit.case "ziggurat has N(0,1) moments" (fun () ->
      let g = Testkit.rng () in
      let n = 200000 in
      let x = Array.init n (fun _ -> Gaussian.draw g) in
      Testkit.check_abs ~tol:0.02 "mean" 0.0 (Ptrng_stats.Descriptive.mean x);
      Testkit.check_rel ~tol:0.03 "variance" 1.0 (Ptrng_stats.Descriptive.variance x);
      Testkit.check_abs ~tol:0.05 "skewness" 0.0 (Ptrng_stats.Descriptive.skewness x);
      Testkit.check_abs ~tol:0.1 "excess kurtosis" 0.0
        (Ptrng_stats.Descriptive.kurtosis_excess x))

let gaussian_ks =
  Testkit.case "ziggurat passes KS against Phi" (fun () ->
      let g = Testkit.rng ~seed:77L () in
      let x = Array.init 20000 (fun _ -> Gaussian.draw g) in
      let r = Ptrng_stats.Tests.ks_one_sample ~cdf:Ptrng_stats.Special.normal_cdf x in
      Testkit.check_true "KS p-value > 0.001" (r.p_value > 0.001))

let gaussian_tests =
  [
    gaussian_moments;
    gaussian_ks;
    Testkit.case "tail samples occur and are finite" (fun () ->
        let g = Testkit.rng ~seed:5L () in
        let beyond = ref 0 in
        for _ = 1 to 2_000_000 do
          let v = Gaussian.draw g in
          Testkit.check_true "finite" (Float.is_finite v);
          if Float.abs v > 3.4426 then incr beyond
        done;
        (* P(|Z| > 3.4426) ~ 5.7e-4: expect ~1150 hits. *)
        Testkit.check_in_range "tail hits" ~lo:800.0 ~hi:1600.0 (float_of_int !beyond));
    Testkit.case "draw_scaled applies mu and sigma" (fun () ->
        let g = Testkit.rng () in
        let x = Array.init 100000 (fun _ -> Gaussian.draw_scaled g ~mu:3.0 ~sigma:0.5) in
        Testkit.check_abs ~tol:0.02 "mean" 3.0 (Ptrng_stats.Descriptive.mean x);
        Testkit.check_rel ~tol:0.05 "variance" 0.25 (Ptrng_stats.Descriptive.variance x));
    Testkit.case "draw_scaled is mu + sigma * draw" (fun () ->
        let a = Rng.create ~seed:4L () and b = Rng.create ~seed:4L () in
        for _ = 1 to 1000 do
          let expected = -2.0 +. (0.3 *. Gaussian.draw b) in
          Alcotest.(check (float 0.0)) "same value" expected
            (Gaussian.draw_scaled a ~mu:(-2.0) ~sigma:0.3)
        done);
    Testkit.case "fill_fa writes only its range" (fun () ->
        let dst = Float.Array.make 64 nan in
        Gaussian.fill_fa (Testkit.rng ()) ~sigma:1.0 dst ~pos:10 ~len:20;
        Float.Array.iteri
          (fun i v ->
            if i >= 10 && i < 30 then Testkit.check_true "filled" (Float.is_finite v)
            else Testkit.check_true "untouched" (Float.is_nan v))
          dst);
    Testkit.case "fill_fa rejects a bad range" (fun () ->
        let dst = Float.Array.create 8 in
        List.iter
          (fun (pos, len) ->
            Alcotest.check_raises
              (Printf.sprintf "pos %d len %d" pos len)
              (Invalid_argument "Gaussian.fill_fa: bad range")
              (fun () -> Gaussian.fill_fa (Testkit.rng ()) ~sigma:1.0 dst ~pos ~len))
          [ (-1, 2); (0, -1); (4, 5); (9, 0) ]);
    Testkit.case "fill_fa is independent of the partition" (fun () ->
        let n = 4099 in
        let whole = Float.Array.create n and parts = Float.Array.create n in
        Gaussian.fill_fa (Rng.create ~seed:6L ()) ~sigma:1.0 whole ~pos:0 ~len:n;
        let rng = Rng.create ~seed:6L () in
        let pos = ref 0 in
        List.iter
          (fun len ->
            Gaussian.fill_fa rng ~sigma:1.0 parts ~pos:!pos ~len;
            pos := !pos + len)
          [ 1; 0; 7; 1000; 3; 3088 ];
        Alcotest.(check int) "covered" n !pos;
        Alcotest.(check string) "same values"
          (Testkit.float_digest (Float.Array.to_seq whole))
          (Testkit.float_digest (Float.Array.to_seq parts)));
    Testkit.case "fill_fa scales by sigma" (fun () ->
        let n = 10_000 in
        let dst = Float.Array.create n in
        Gaussian.fill_fa (Rng.create ~seed:10L ()) ~sigma:2.5 dst ~pos:0 ~len:n;
        let loop = Rng.create ~seed:10L () in
        Float.Array.iter
          (fun v ->
            Alcotest.(check (float 0.0)) "sigma * draw" (2.5 *. Gaussian.draw loop) v)
          dst);
    Testkit.case "fill_fa passes KS against Phi" (fun () ->
        let n = 20000 in
        let dst = Float.Array.create n in
        Gaussian.fill_fa (Testkit.rng ~seed:78L ()) ~sigma:1.0 dst ~pos:0 ~len:n;
        let x = Array.init n (Float.Array.get dst) in
        let r = Ptrng_stats.Tests.ks_one_sample ~cdf:Ptrng_stats.Special.normal_cdf x in
        Testkit.check_true "KS p-value > 0.001" (r.p_value > 0.001));
    Testkit.case "fill_fa is pinned and equals a draw loop" (fun () ->
        let n = 100_000 in
        let rng = Rng.create ~seed:2014L () in
        let dst = Float.Array.create n in
        Gaussian.fill_fa rng ~sigma:1.0 dst ~pos:0 ~len:n;
        Alcotest.(check string) "digest" "ec68fb2b45ba3927a754e7344fef4e2c"
          (Testkit.float_digest (Float.Array.to_seq dst));
        let loop = Rng.create ~seed:2014L () in
        Alcotest.(check string) "draw loop" "ec68fb2b45ba3927a754e7344fef4e2c"
          (Testkit.float_digest (Seq.init n (fun _ -> Gaussian.draw loop)));
        (* Both slow paths ran: tail draws, and uniforms beyond the two
           per draw and the two per tail attempt (wedge tests). *)
        let tail = ref 0 in
        Float.Array.iter (fun z -> if Float.abs z > 3.442619855899 then incr tail) dst;
        Testkit.check_true "tail hits" (!tail > 0);
        let next = Rng.bits64 rng and replay = Rng.create ~seed:2014L () in
        let consumed = ref 0 in
        while Rng.bits64 replay <> next do
          incr consumed
        done;
        Testkit.check_true "wedge uniforms" (!consumed - (2 * n) - (2 * !tail) > 0));
  ]

(* --- Distributions --- *)

let distributions_tests =
  [
    Testkit.case "exponential mean and variance" (fun () ->
        let rng = Testkit.rng () in
        let x = Array.init 200000 (fun _ -> Distributions.exponential rng ~rate:2.0) in
        Testkit.check_rel ~tol:0.03 "mean" 0.5 (Ptrng_stats.Descriptive.mean x);
        Testkit.check_rel ~tol:0.05 "variance" 0.25 (Ptrng_stats.Descriptive.variance x));
    Testkit.case "exponential rejects bad rate" (fun () ->
        Alcotest.check_raises "rate 0"
          (Invalid_argument "Distributions.exponential: rate <= 0")
          (fun () -> ignore (Distributions.exponential (Testkit.rng ()) ~rate:0.0)));
    Testkit.case "bernoulli rejects p outside [0, 1]" (fun () ->
        List.iter
          (fun p ->
            Alcotest.check_raises (Printf.sprintf "p = %g" p)
              (Invalid_argument "Distributions.bernoulli: p outside [0,1]")
              (fun () -> ignore (Distributions.bernoulli (Testkit.rng ()) ~p)))
          [ -0.1; 1.5 ]);
    Testkit.case "poisson rejects non-positive lambda" (fun () ->
        Alcotest.check_raises "lambda 0"
          (Invalid_argument "Distributions.poisson: lambda <= 0")
          (fun () -> ignore (Distributions.poisson (Testkit.rng ()) ~lambda:0.0)));
    Testkit.case "laplace rejects non-positive scale" (fun () ->
        Alcotest.check_raises "b 0" (Invalid_argument "Distributions.laplace: b <= 0")
          (fun () -> ignore (Distributions.laplace (Testkit.rng ()) ~mu:0.0 ~b:0.0)));
    Testkit.case "cauchy rejects non-positive scale" (fun () ->
        Alcotest.check_raises "gamma -1"
          (Invalid_argument "Distributions.cauchy: gamma <= 0")
          (fun () -> ignore (Distributions.cauchy (Testkit.rng ()) ~x0:0.0 ~gamma:(-1.0))));
    Testkit.case "binomial rejects bad arguments" (fun () ->
        Alcotest.check_raises "n -1" (Invalid_argument "Distributions.binomial: n < 0")
          (fun () -> ignore (Distributions.binomial (Testkit.rng ()) ~n:(-1) ~p:0.5));
        Alcotest.check_raises "p 2"
          (Invalid_argument "Distributions.binomial: p outside [0,1]")
          (fun () -> ignore (Distributions.binomial (Testkit.rng ()) ~n:4 ~p:2.0)));
    Testkit.case "geometric rejects p outside (0, 1]" (fun () ->
        Alcotest.check_raises "p 0"
          (Invalid_argument "Distributions.geometric: p outside (0,1]")
          (fun () -> ignore (Distributions.geometric (Testkit.rng ()) ~p:0.0));
        Alcotest.(check int) "p 1 never fails" 0
          (Distributions.geometric (Testkit.rng ()) ~p:1.0));
    Testkit.case "laplace variance is 2 b^2" (fun () ->
        let rng = Testkit.rng () in
        let x = Array.init 200000 (fun _ -> Distributions.laplace rng ~mu:1.0 ~b:0.7) in
        Testkit.check_rel ~tol:0.03 "mean" 1.0 (Ptrng_stats.Descriptive.mean x);
        Testkit.check_rel ~tol:0.05 "variance" (2.0 *. 0.49)
          (Ptrng_stats.Descriptive.variance x));
    Testkit.case "cauchy median is x0" (fun () ->
        let rng = Testkit.rng () in
        let x = Array.init 100000 (fun _ -> Distributions.cauchy rng ~x0:4.0 ~gamma:1.0) in
        Testkit.check_abs ~tol:0.05 "median" 4.0 (Ptrng_stats.Descriptive.median x));
    Testkit.case "bernoulli frequency" (fun () ->
        let rng = Testkit.rng () in
        let hits = ref 0 in
        for _ = 1 to 100000 do
          if Distributions.bernoulli rng ~p:0.3 then incr hits
        done;
        Testkit.check_rel ~tol:0.03 "frequency" 0.3 (float_of_int !hits /. 100000.0));
    Testkit.case "binomial small-n path" (fun () ->
        let rng = Testkit.rng () in
        let x =
          Array.init 50000 (fun _ -> float_of_int (Distributions.binomial rng ~n:20 ~p:0.25))
        in
        Testkit.check_rel ~tol:0.03 "mean" 5.0 (Ptrng_stats.Descriptive.mean x);
        Testkit.check_rel ~tol:0.06 "variance" 3.75 (Ptrng_stats.Descriptive.variance x));
    Testkit.case "binomial large-n path" (fun () ->
        let rng = Testkit.rng () in
        let x =
          Array.init 50000 (fun _ ->
              float_of_int (Distributions.binomial rng ~n:10000 ~p:0.5))
        in
        Testkit.check_rel ~tol:0.002 "mean" 5000.0 (Ptrng_stats.Descriptive.mean x);
        Testkit.check_rel ~tol:0.1 "variance" 2500.0 (Ptrng_stats.Descriptive.variance x));
    Testkit.case "binomial edge cases" (fun () ->
        let rng = Testkit.rng () in
        Alcotest.(check int) "p=0" 0 (Distributions.binomial rng ~n:10 ~p:0.0);
        Alcotest.(check int) "p=1" 10 (Distributions.binomial rng ~n:10 ~p:1.0);
        Alcotest.(check int) "n=0" 0 (Distributions.binomial rng ~n:0 ~p:0.5));
    Testkit.case "poisson small-lambda path" (fun () ->
        let rng = Testkit.rng () in
        let x =
          Array.init 100000 (fun _ -> float_of_int (Distributions.poisson rng ~lambda:4.0))
        in
        Testkit.check_rel ~tol:0.03 "mean" 4.0 (Ptrng_stats.Descriptive.mean x);
        Testkit.check_rel ~tol:0.05 "variance" 4.0 (Ptrng_stats.Descriptive.variance x));
    Testkit.case "poisson large-lambda path" (fun () ->
        let rng = Testkit.rng () in
        let x =
          Array.init 50000 (fun _ -> float_of_int (Distributions.poisson rng ~lambda:400.0))
        in
        Testkit.check_rel ~tol:0.01 "mean" 400.0 (Ptrng_stats.Descriptive.mean x);
        Testkit.check_rel ~tol:0.1 "variance" 400.0 (Ptrng_stats.Descriptive.variance x));
    Testkit.case "geometric mean" (fun () ->
        let rng = Testkit.rng () in
        let x =
          Array.init 100000 (fun _ -> float_of_int (Distributions.geometric rng ~p:0.25))
        in
        Testkit.check_rel ~tol:0.05 "mean" 3.0 (Ptrng_stats.Descriptive.mean x));
    Testkit.case "uniform_array bounds and size" (fun () ->
        let a = Distributions.uniform_array (Testkit.rng ()) 1000 in
        Alcotest.(check int) "length" 1000 (Array.length a);
        Array.iter (fun v -> Testkit.check_in_range "value" ~lo:0.0 ~hi:1.0 v) a);
  ]

let () =
  Alcotest.run "ptrng_prng"
    [
      ("splitmix64", splitmix_tests);
      ("xoshiro256", xoshiro_tests);
      ("rng", rng_tests);
      ("gaussian", gaussian_tests);
      ("distributions", distributions_tests);
    ]
