type buffer = float array

(* Interleaved storage: entry i of column c sits at [i * width + c], so
   the K column values of one index share a cache line — the layout the
   multi-RHS sparse kernels sweep. *)
type t = { mv_dim : int; mv_width : int; buf : buffer }

let create ~dim ~width =
  if dim < 0 || width < 0 || (width = 0 && dim > 0) then
    invalid_arg "Multivec.create: bad shape";
  { mv_dim = dim; mv_width = width; buf = Array.make (dim * width) 0. }

let dim v = v.mv_dim

let width v = v.mv_width

let data v = v.buf

let check_index v i c =
  if i < 0 || i >= v.mv_dim || c < 0 || c >= v.mv_width then
    invalid_arg
      (Printf.sprintf "Multivec: index (%d,%d) out of %dx%d" i c v.mv_dim
         v.mv_width)

let get v i c =
  check_index v i c;
  Array.unsafe_get v.buf ((i * v.mv_width) + c)

let set v i c x =
  check_index v i c;
  Array.unsafe_set v.buf ((i * v.mv_width) + c) x

let fill v x = Array.fill v.buf 0 (Array.length v.buf) x

let copy v = { v with buf = Array.copy v.buf }

let check_same_shape name a b =
  if a.mv_dim <> b.mv_dim || a.mv_width <> b.mv_width then
    invalid_arg
      (Printf.sprintf "Multivec.%s: shape mismatch (%dx%d vs %dx%d)" name
         a.mv_dim a.mv_width b.mv_dim b.mv_width)

let blit src dst =
  check_same_shape "blit" src dst;
  Array.blit src.buf 0 dst.buf 0 (Array.length src.buf)

let of_cols cols =
  let k = Array.length cols in
  if k = 0 then invalid_arg "Multivec.of_cols: no columns";
  let n = Vec.dim cols.(0) in
  Array.iter
    (fun c ->
      if Vec.dim c <> n then invalid_arg "Multivec.of_cols: ragged columns")
    cols;
  let v = create ~dim:n ~width:k in
  for i = 0 to n - 1 do
    let base = i * k in
    for c = 0 to k - 1 do
      Array.unsafe_set v.buf (base + c) (Array.unsafe_get cols.(c) i)
    done
  done;
  v

let col_into v c y =
  if c < 0 || c >= v.mv_width then
    invalid_arg "Multivec.col_into: column out of range";
  if Vec.dim y <> v.mv_dim then
    invalid_arg "Multivec.col_into: dimension mismatch";
  let k = v.mv_width in
  for i = 0 to v.mv_dim - 1 do
    Array.unsafe_set y i (Array.unsafe_get v.buf ((i * k) + c))
  done

let col v c =
  if c < 0 || c >= v.mv_width then invalid_arg "Multivec.col: column out of range";
  let k = v.mv_width in
  Array.init v.mv_dim (fun i -> Array.unsafe_get v.buf ((i * k) + c))

let to_cols v = Array.init v.mv_width (col v)

let set_col v c x =
  if c < 0 || c >= v.mv_width then
    invalid_arg "Multivec.set_col: column out of range";
  if Vec.dim x <> v.mv_dim then
    invalid_arg "Multivec.set_col: dimension mismatch";
  let k = v.mv_width in
  for i = 0 to v.mv_dim - 1 do
    Array.unsafe_set v.buf ((i * k) + c) (Array.unsafe_get x i)
  done

let axpy_from_col a v c y =
  if c < 0 || c >= v.mv_width then
    invalid_arg "Multivec.axpy_from_col: column out of range";
  if Vec.dim y <> v.mv_dim then
    invalid_arg "Multivec.axpy_from_col: dimension mismatch";
  let k = v.mv_width in
  for i = 0 to v.mv_dim - 1 do
    Array.unsafe_set y i
      (Array.unsafe_get y i +. (a *. Array.unsafe_get v.buf ((i * k) + c)))
  done

let dot_col v c r =
  if c < 0 || c >= v.mv_width then
    invalid_arg "Multivec.dot_col: column out of range";
  if Vec.dim r <> v.mv_dim then
    invalid_arg "Multivec.dot_col: dimension mismatch";
  let k = v.mv_width in
  let acc = ref 0. in
  for i = 0 to v.mv_dim - 1 do
    acc := !acc +. (Array.unsafe_get v.buf ((i * k) + c) *. Array.unsafe_get r i)
  done;
  !acc

let axpy_uniform a x y =
  check_same_shape "axpy_uniform" x y;
  let m = Array.length x.buf in
  for p = 0 to m - 1 do
    Array.unsafe_set y.buf p (Array.unsafe_get y.buf p +. (a *. Array.unsafe_get x.buf p))
  done

let scale_uniform a v =
  let m = Array.length v.buf in
  for p = 0 to m - 1 do
    Array.unsafe_set v.buf p (a *. Array.unsafe_get v.buf p)
  done

let max_norms v =
  let k = v.mv_width in
  let out = Array.make k 0. in
  for i = 0 to v.mv_dim - 1 do
    let base = i * k in
    for c = 0 to k - 1 do
      let x = Float.abs (Array.unsafe_get v.buf (base + c)) in
      if x > Array.unsafe_get out c then Array.unsafe_set out c x
    done
  done;
  out

let abs_row_sum_max v =
  let k = v.mv_width in
  let best = ref 0. in
  for i = 0 to v.mv_dim - 1 do
    let base = i * k in
    let acc = ref 0. in
    for c = 0 to k - 1 do
      acc := !acc +. Float.abs (Array.unsafe_get v.buf (base + c))
    done;
    if !acc > !best then best := !acc
  done;
  !best
