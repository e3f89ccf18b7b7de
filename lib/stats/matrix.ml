type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: non-positive dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let rows m = m.rows
let cols m = m.cols
let get m i j = m.data.((i * m.cols) + j)
let set m i j v = m.data.((i * m.cols) + j) <- v
let copy m = { m with data = Array.copy m.data }

let of_rows rws =
  let r = Array.length rws in
  if r = 0 then invalid_arg "Matrix.of_rows: empty";
  let c = Array.length rws.(0) in
  let m = create ~rows:r ~cols:c in
  Array.iteri
    (fun i row ->
      if Array.length row <> c then invalid_arg "Matrix.of_rows: ragged rows";
      Array.iteri (fun j v -> set m i j v) row)
    rws;
  m


let transpose m =
  let out = create ~rows:m.cols ~cols:m.rows in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      set out j i (get m i j)
    done
  done;
  out

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  let out = create ~rows:a.rows ~cols:b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          set out i j (get out i j +. (aik *. get b k j))
        done
    done
  done;
  out

let mul_vec a v =
  if a.cols <> Array.length v then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init a.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to a.cols - 1 do
        acc := !acc +. (get a i j *. v.(j))
      done;
      !acc)

(* LU with partial pivoting; returns (lu, perm, sign). *)
let lu_decompose a =
  if a.rows <> a.cols then invalid_arg "Matrix.solve_lu: non-square";
  let n = a.rows in
  let lu = copy a in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    let pivot = ref k and pmax = ref (Float.abs (get lu k k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (get lu i k) in
      if v > !pmax then begin
        pmax := v;
        pivot := i
      end
    done;
    if !pmax < 1e-300 then failwith "Matrix: singular system";
    if !pivot <> k then begin
      for j = 0 to n - 1 do
        let tmp = get lu k j in
        set lu k j (get lu !pivot j);
        set lu !pivot j tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!pivot);
      perm.(!pivot) <- tmp
    end;
    let pivot_val = get lu k k in
    for i = k + 1 to n - 1 do
      let factor = get lu i k /. pivot_val in
      set lu i k factor;
      for j = k + 1 to n - 1 do
        set lu i j (get lu i j -. (factor *. get lu k j))
      done
    done
  done;
  (lu, perm)

let lu_solve (lu, perm) b =
  let n = Array.length perm in
  let x = Array.init n (fun i -> b.(perm.(i))) in
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      x.(i) <- x.(i) -. (get lu i j *. x.(j))
    done
  done;
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (get lu i j *. x.(j))
    done;
    x.(i) <- x.(i) /. get lu i i
  done;
  x

let solve_lu a b =
  if Array.length b <> a.rows then invalid_arg "Matrix.solve_lu: rhs size mismatch";
  lu_solve (lu_decompose a) b

let inverse a =
  let n = a.rows in
  let decomp = lu_decompose a in
  let out = create ~rows:n ~cols:n in
  for j = 0 to n - 1 do
    let e = Array.make n 0.0 in
    e.(j) <- 1.0;
    let col = lu_solve decomp e in
    for i = 0 to n - 1 do
      set out i j col.(i)
    done
  done;
  out

(* Householder QR least squares, working on copies of A and b. *)
let least_squares a b =
  let m = a.rows and n = a.cols in
  if m < n then invalid_arg "Matrix.least_squares: underdetermined system";
  if Array.length b <> m then invalid_arg "Matrix.least_squares: rhs size mismatch";
  let r = copy a in
  let y = Array.copy b in
  (* Rank decisions are made relative to the matrix scale. *)
  let frobenius =
    sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 a.data)
  in
  let rank_eps = 1e-12 *. Float.max frobenius 1e-300 in
  for k = 0 to n - 1 do
    (* Householder vector for column k below the diagonal. *)
    let norm = ref 0.0 in
    for i = k to m - 1 do
      let v = get r i k in
      norm := !norm +. (v *. v)
    done;
    let norm = sqrt !norm in
    if norm < rank_eps then failwith "Matrix: rank-deficient least squares";
    let alpha = if get r k k > 0.0 then -.norm else norm in
    let v = Array.make m 0.0 in
    v.(k) <- get r k k -. alpha;
    for i = k + 1 to m - 1 do
      v.(i) <- get r i k
    done;
    let vtv = ref 0.0 in
    for i = k to m - 1 do
      vtv := !vtv +. (v.(i) *. v.(i))
    done;
    if !vtv > 0.0 then begin
      let beta = 2.0 /. !vtv in
      for j = k to n - 1 do
        let dot = ref 0.0 in
        for i = k to m - 1 do
          dot := !dot +. (v.(i) *. get r i j)
        done;
        let s = beta *. !dot in
        for i = k to m - 1 do
          set r i j (get r i j -. (s *. v.(i)))
        done
      done;
      let dot = ref 0.0 in
      for i = k to m - 1 do
        dot := !dot +. (v.(i) *. y.(i))
      done;
      let s = beta *. !dot in
      for i = k to m - 1 do
        y.(i) <- y.(i) -. (s *. v.(i))
      done
    end
  done;
  (* Back substitution on the upper-triangular R. *)
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (get r i j *. x.(j))
    done;
    x.(i) <- !acc /. get r i i
  done;
  x
