type t = {
  buf : float array;
  mutable head : int;   (* next write position *)
  mutable count : int;  (* samples currently held *)
  mutable total : int;  (* samples ever pushed *)
}

let create ~capacity =
  if capacity < 2 then invalid_arg "Window.create: capacity < 2";
  { buf = Array.make capacity 0.0; head = 0; count = 0; total = 0 }

let capacity t = Array.length t.buf

(* Inlined into [push_from], whose sample then stays unboxed. *)
let[@inline] push t x =
  if Float.is_finite x then begin
    t.buf.(t.head) <- x;
    t.head <- (if t.head + 1 = capacity t then 0 else t.head + 1);
    if t.count < capacity t then t.count <- t.count + 1;
    t.total <- t.total + 1
  end

let push_from t src i = push t (Float.Array.get src i)

let count t = t.count
let total t = t.total

let last t =
  if t.count = 0 then nan
  else t.buf.((t.head + capacity t - 1) mod capacity t)

(* The held samples are buf.(lo .. head-1) with lo = head - count, or,
   once the ring has wrapped (lo < 0), buf.(lo + capacity .. capacity-1)
   then buf.(0 .. head-1): the loops below walk these ranges oldest
   first, so the summation order is the ring's and no element pays a
   [mod].  They are written out because a float-taking closure boxes
   on the classic compiler. *)

let mean t =
  if t.count = 0 then nan
  else begin
    let buf = t.buf and lo = t.head - t.count in
    let s = ref 0.0 in
    if lo < 0 then
      for i = lo + Array.length buf to Array.length buf - 1 do
        s := !s +. Array.unsafe_get buf i
      done;
    for i = (if lo < 0 then 0 else lo) to t.head - 1 do
      s := !s +. Array.unsafe_get buf i
    done;
    !s /. float_of_int t.count
  end

let variance t =
  if t.count < 2 then nan
  else begin
    let m = mean t in
    let buf = t.buf and lo = t.head - t.count in
    let s = ref 0.0 in
    if lo < 0 then
      for i = lo + Array.length buf to Array.length buf - 1 do
        let d = Array.unsafe_get buf i -. m in
        s := !s +. (d *. d)
      done;
    for i = (if lo < 0 then 0 else lo) to t.head - 1 do
      let d = Array.unsafe_get buf i -. m in
      s := !s +. (d *. d)
    done;
    !s /. float_of_int (t.count - 1)
  end

let to_array t =
  let lo = t.head - t.count in
  if lo >= 0 then Array.sub t.buf lo t.count
  else begin
    let a = Array.make t.count 0.0 in
    Array.blit t.buf (lo + capacity t) a 0 (-lo);
    Array.blit t.buf 0 a (-lo) t.head;
    a
  end
