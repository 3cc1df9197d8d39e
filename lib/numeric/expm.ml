let dims a =
  let n = Array.length a in
  Array.iter
    (fun row -> if Array.length row <> n then invalid_arg "Expm: matrix not square")
    a;
  n

(* Dense n×n matrices live in a {!Multivec} row-major (row [i] is the
   width-n block of index [i]), so the scaling-and-squaring loop runs on
   flat float arrays and shares the axpy/scale/norm helpers with the
   rest of the kernel layer instead of nested [float array array] loops. *)

let of_rows n a =
  let m = Multivec.create ~dim:n ~width:n in
  let d = Multivec.data m in
  for i = 0 to n - 1 do
    let base = i * n in
    let row = a.(i) in
    for j = 0 to n - 1 do
      Array.unsafe_set d (base + j) (Array.unsafe_get row j)
    done
  done;
  m

let to_rows m =
  let n = Multivec.dim m in
  Array.init n (fun i -> Array.init n (fun j -> Multivec.get m i j))

let identity_mv n =
  let m = Multivec.create ~dim:n ~width:n in
  for i = 0 to n - 1 do
    Multivec.set m i i 1.
  done;
  m

(* c <- a * b in ikj order: the inner loop streams one row of [b] against
   one scalar of [a], all three buffers contiguous. *)
let mat_mul_into n a b c =
  Multivec.fill c 0.;
  let ad = Multivec.data a and bd = Multivec.data b and cd = Multivec.data c in
  for i = 0 to n - 1 do
    let ib = i * n in
    for k = 0 to n - 1 do
      let aik = Array.unsafe_get ad (ib + k) in
      if aik <> 0. then begin
        let kb = k * n in
        for j = 0 to n - 1 do
          Array.unsafe_set cd (ib + j)
            (Array.unsafe_get cd (ib + j) +. (aik *. Array.unsafe_get bd (kb + j)))
        done
      end
    done
  done

let expm a =
  let n = dims a in
  if n = 0 then [||]
  else begin
    let am = of_rows n a in
    (* scaling: find k with ||a / 2^k|| <= 0.5 *)
    let norm = Multivec.abs_row_sum_max am in
    let k =
      if norm <= 0.5 then 0
      else max 0 (int_of_float (Float.ceil (Float.log (norm /. 0.5) /. Float.log 2.)))
    in
    Multivec.scale_uniform (1. /. Float.pow 2. (float_of_int k)) am;
    (* Taylor series sum_j scaled^j / j!, converges fast for norm <= 0.5 *)
    let result = ref (identity_mv n) in
    let term = ref (identity_mv n) in
    let next = ref (Multivec.create ~dim:n ~width:n) in
    let j = ref 1 in
    let continue = ref true in
    while !continue do
      mat_mul_into n !term am !next;
      Multivec.scale_uniform (1. /. float_of_int !j) !next;
      let t = !term in
      term := !next;
      next := t;
      Multivec.axpy_uniform 1. !term !result;
      if Multivec.abs_row_sum_max !term < 1e-18 || !j > 60 then
        continue := false;
      incr j
    done;
    (* squaring *)
    let out = ref !result in
    let scratch = ref (Multivec.create ~dim:n ~width:n) in
    for _ = 1 to k do
      mat_mul_into n !out !out !scratch;
      let t = !out in
      out := !scratch;
      scratch := t
    done;
    to_rows !out
  end

let expm_generator q t =
  let n = Sparse.rows q in
  if Sparse.cols q <> n then invalid_arg "Expm.expm_generator: not square";
  let dense = Array.make_matrix n n 0. in
  Sparse.iteri q (fun i j x -> dense.(i).(j) <- dense.(i).(j) +. (x *. t));
  expm dense
