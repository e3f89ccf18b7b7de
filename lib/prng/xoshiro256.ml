type t = {
  mutable s0 : int64;
  mutable s1 : int64;
  mutable s2 : int64;
  mutable s3 : int64;
}

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let create ~seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  { s0; s1; s2; s3 }

let of_state s =
  if Array.length s <> 4 then invalid_arg "Xoshiro256.of_state: need 4 words";
  if s.(0) = 0L && s.(1) = 0L && s.(2) = 0L && s.(3) = 0L then
    invalid_arg "Xoshiro256.of_state: all-zero state is absorbing";
  { s0 = s.(0); s1 = s.(1); s2 = s.(2); s3 = s.(3) }

let state t = [| t.s0; t.s1; t.s2; t.s3 |]

let restore t s =
  if Array.length s <> 4 then invalid_arg "Xoshiro256.restore: need 4 words";
  if s.(0) = 0L && s.(1) = 0L && s.(2) = 0L && s.(3) = 0L then
    invalid_arg "Xoshiro256.restore: all-zero state is absorbing";
  t.s0 <- s.(0);
  t.s1 <- s.(1);
  t.s2 <- s.(2);
  t.s3 <- s.(3)

let next t =
  let result = Int64.add (rotl (Int64.add t.s0 t.s3) 23) t.s0 in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result
