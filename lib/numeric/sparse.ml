module A1 = Bigarray.Array1

type index_array = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t
type value_array = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

(* Unboxed CSR: int32 row pointers / column indices, float64 values. The
   kernels below read these directly; everything else goes through the
   bounds-checked accessors. *)
type t = {
  rows : int;
  cols : int;
  row_ptr : index_array; (* length rows+1 *)
  col_idx : index_array; (* length nnz, sorted within each row *)
  values : value_array; (* length nnz *)
}

let idx (a : index_array) p = Int32.to_int (A1.unsafe_get a p)

(* Rows up to this length are column-sorted by insertion sort; longer
   ones by a stable merge sort over a permutation. *)
let insertion_limit = 64

(* Stable sort of entries [lo, hi) of (cols, vals) by column. *)
let sort_row (cols : index_array) (vals : value_array) lo hi =
  if hi - lo <= insertion_limit then
    for p = lo + 1 to hi - 1 do
      let c = A1.unsafe_get cols p and v = A1.unsafe_get vals p in
      let q = ref (p - 1) in
      while !q >= lo && idx cols !q > Int32.to_int c do
        A1.unsafe_set cols (!q + 1) (A1.unsafe_get cols !q);
        A1.unsafe_set vals (!q + 1) (A1.unsafe_get vals !q);
        decr q
      done;
      A1.unsafe_set cols (!q + 1) c;
      A1.unsafe_set vals (!q + 1) v
    done
  else begin
    let perm = Array.init (hi - lo) (fun q -> lo + q) in
    Array.stable_sort
      (fun a b -> Int.compare (idx cols a) (idx cols b))
      perm;
    let c = Array.map (fun p -> A1.unsafe_get cols p) perm in
    let v = Array.map (fun p -> A1.unsafe_get vals p) perm in
    for q = 0 to hi - lo - 1 do
      A1.unsafe_set cols (lo + q) c.(q);
      A1.unsafe_set vals (lo + q) v.(q)
    done
  end

(* The one row rule of both builders: sort entries [lo, hi) stably by
   column, then compact them to [w, ...) (w <= lo) summing duplicates in
   insertion order and dropping exact-zero sums. Returns the new end. *)
let finish_row (cols : index_array) (vals : value_array) ~w lo hi =
  sort_row cols vals lo hi;
  let w = ref w and p = ref lo in
  while !p < hi do
    let c = A1.unsafe_get cols !p in
    let acc = ref 0. in
    while !p < hi && idx cols !p = Int32.to_int c do
      acc := !acc +. A1.unsafe_get vals !p;
      incr p
    done;
    if !acc <> 0. then begin
      A1.unsafe_set cols !w c;
      A1.unsafe_set vals !w !acc;
      incr w
    end
  done;
  !w

(* [a] itself when it holds exactly [n] entries, else a copy of its
   prefix *)
let exact kind (a : ('a, 'b, Bigarray.c_layout) A1.t) n =
  if A1.dim a = n then a
  else begin
    let a' = A1.create kind Bigarray.c_layout n in
    A1.blit (A1.sub a 0 n) a';
    a'
  end

module Builder = struct
  type matrix = t

  (* Triplets in three growable unboxed arrays, in insertion order. *)
  type t = {
    b_rows : int;
    b_cols : int;
    mutable ri : int array;
    mutable ci : int array;
    mutable vs : float array;
    mutable count : int;
  }

  let create ~rows ~cols =
    if rows < 0 || cols < 0 then invalid_arg "Sparse.Builder.create";
    { b_rows = rows; b_cols = cols; ri = [||]; ci = [||]; vs = [||]; count = 0 }

  let grow b =
    let cap = max 16 (2 * b.count) in
    let extend a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 b.count;
      a'
    in
    b.ri <- extend b.ri 0;
    b.ci <- extend b.ci 0;
    b.vs <- extend b.vs 0.

  let add b i j x =
    if i < 0 || i >= b.b_rows || j < 0 || j >= b.b_cols then
      invalid_arg
        (Printf.sprintf "Sparse.Builder.add: (%d,%d) out of %dx%d" i j
           b.b_rows b.b_cols);
    let k = b.count in
    if k = Array.length b.ri then grow b;
    Array.unsafe_set b.ri k i;
    Array.unsafe_set b.ci k j;
    Array.unsafe_set b.vs k x;
    b.count <- k + 1

  (* Finalization: a stable counting sort by row scatters the triplets
     into the column/value Bigarrays, then each row goes through
     [finish_row]. *)
  let to_csr b : matrix =
    let rows = b.b_rows and cols = b.b_cols in
    let n = b.count in
    let ri = b.ri and ci = b.ci and vs = b.vs in
    let next = Array.make (rows + 1) 0 in
    for p = 0 to n - 1 do
      let r = Array.unsafe_get ri p + 1 in
      Array.unsafe_set next r (Array.unsafe_get next r + 1)
    done;
    for r = 1 to rows do
      next.(r) <- next.(r) + next.(r - 1)
    done;
    let col_idx = A1.create Bigarray.int32 Bigarray.c_layout n in
    let values = A1.create Bigarray.float64 Bigarray.c_layout n in
    for p = 0 to n - 1 do
      let r = Array.unsafe_get ri p in
      let q = Array.unsafe_get next r in
      A1.unsafe_set col_idx q (Int32.of_int (Array.unsafe_get ci p));
      A1.unsafe_set values q (Array.unsafe_get vs p);
      Array.unsafe_set next r (q + 1)
    done;
    (* [next.(r)] is now the end of row [r], i.e. the start of row r+1 *)
    let row_ptr = A1.create Bigarray.int32 Bigarray.c_layout (rows + 1) in
    A1.unsafe_set row_ptr 0 0l;
    let w = ref 0 and lo = ref 0 in
    for r = 0 to rows - 1 do
      let hi = next.(r) in
      w := finish_row col_idx values ~w:!w !lo hi;
      A1.unsafe_set row_ptr (r + 1) (Int32.of_int !w);
      lo := hi
    done;
    let nnz = !w in
    {
      rows;
      cols;
      row_ptr;
      col_idx = exact Bigarray.int32 col_idx nnz;
      values = exact Bigarray.float64 values nnz;
    }
end

module Rows = struct
  type matrix = t

  (* The closed rows' entries in [0, row_ptr.(rows)), the open row's
     from there to [count]; all three buffers grow by doubling. *)
  type t = {
    mutable r_cols : index_array;
    mutable r_vals : value_array;
    mutable r_ptr : index_array;
    mutable rows : int;
    mutable count : int;
    mutable max_col : int;
  }

  let create () =
    let ptr = A1.create Bigarray.int32 Bigarray.c_layout 64 in
    A1.unsafe_set ptr 0 0l;
    {
      r_cols = A1.create Bigarray.int32 Bigarray.c_layout 64;
      r_vals = A1.create Bigarray.float64 Bigarray.c_layout 64;
      r_ptr = ptr;
      rows = 0;
      count = 0;
      max_col = -1;
    }

  let grown kind a used =
    let a' = A1.create kind Bigarray.c_layout (2 * A1.dim a) in
    A1.blit (A1.sub a 0 used) (A1.sub a' 0 used);
    a'

  let add b j x =
    if j < 0 then invalid_arg (Printf.sprintf "Sparse.Rows.add: column %d" j);
    let k = b.count in
    if k = A1.dim b.r_cols then begin
      b.r_cols <- grown Bigarray.int32 b.r_cols k;
      b.r_vals <- grown Bigarray.float64 b.r_vals k
    end;
    A1.unsafe_set b.r_cols k (Int32.of_int j);
    A1.unsafe_set b.r_vals k x;
    if j > b.max_col then b.max_col <- j;
    b.count <- k + 1

  let end_row b =
    let lo = idx b.r_ptr b.rows in
    b.count <- finish_row b.r_cols b.r_vals ~w:lo lo b.count;
    if b.rows + 2 > A1.dim b.r_ptr then
      b.r_ptr <- grown Bigarray.int32 b.r_ptr (b.rows + 1);
    b.rows <- b.rows + 1;
    A1.unsafe_set b.r_ptr b.rows (Int32.of_int b.count)

  let to_csr b ~cols : matrix =
    if b.count > idx b.r_ptr b.rows then
      invalid_arg "Sparse.Rows.to_csr: the last row is not closed";
    if b.max_col >= cols then
      invalid_arg
        (Printf.sprintf "Sparse.Rows.to_csr: column %d out of %d" b.max_col cols);
    let nnz = b.count in
    {
      rows = b.rows;
      cols;
      row_ptr = exact Bigarray.int32 b.r_ptr (b.rows + 1);
      col_idx = exact Bigarray.int32 b.r_cols nnz;
      values = exact Bigarray.float64 b.r_vals nnz;
    }
end

let of_triplets ~rows ~cols triplets =
  let b = Builder.create ~rows ~cols in
  List.iter (fun (i, j, x) -> Builder.add b i j x) triplets;
  Builder.to_csr b

let of_dense d =
  let rows = Array.length d in
  let cols = if rows = 0 then 0 else Array.length d.(0) in
  let b = Builder.create ~rows ~cols in
  Array.iteri
    (fun i row ->
      Array.iteri (fun j x -> if x <> 0. then Builder.add b i j x) row)
    d;
  Builder.to_csr b

let rows m = m.rows

let cols m = m.cols

let nnz m = idx m.row_ptr m.rows

let to_dense m =
  let d = Array.make_matrix m.rows m.cols 0. in
  for i = 0 to m.rows - 1 do
    for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
      d.(i).(idx m.col_idx p) <- A1.unsafe_get m.values p
    done
  done;
  d

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Sparse.get: out of bounds";
  let lo = ref (idx m.row_ptr i) and hi = ref (idx m.row_ptr (i + 1) - 1) in
  let result = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = idx m.col_idx mid in
    if c = j then begin
      result := A1.unsafe_get m.values mid;
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let row_start m i = Int32.to_int (A1.get m.row_ptr i)

let col_at m p = Int32.to_int (A1.get m.col_idx p)

let iter_row m i f =
  if i < 0 || i >= m.rows then
    invalid_arg (Printf.sprintf "Sparse.iter_row: row %d out of %d" i m.rows);
  for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
    f (idx m.col_idx p) (A1.unsafe_get m.values p)
  done

let iteri m f =
  for i = 0 to m.rows - 1 do
    iter_row m i (fun j x -> f i j x)
  done

let fold m ~init ~f =
  let acc = ref init in
  iteri m (fun i j x -> acc := f !acc i j x);
  !acc

let mul_vec_into m x y =
  if Vec.dim x <> m.cols || Vec.dim y <> m.rows then
    invalid_arg "Sparse.mul_vec_into: dimension mismatch";
  for i = 0 to m.rows - 1 do
    let acc = ref 0. in
    for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
      acc :=
        !acc +. (A1.unsafe_get m.values p *. Array.unsafe_get x (idx m.col_idx p))
    done;
    Array.unsafe_set y i !acc
  done

let mul_vec m x =
  let y = Vec.zeros m.rows in
  mul_vec_into m x y;
  y

let vec_mul_into x m y =
  if Vec.dim x <> m.rows || Vec.dim y <> m.cols then
    invalid_arg "Sparse.vec_mul_into: dimension mismatch";
  Vec.fill y 0.;
  for i = 0 to m.rows - 1 do
    let xi = Array.unsafe_get x i in
    if xi <> 0. then
      for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
        let j = idx m.col_idx p in
        Array.unsafe_set y j
          (Array.unsafe_get y j +. (xi *. A1.unsafe_get m.values p))
      done
  done

let vec_mul x m =
  let y = Vec.zeros m.cols in
  vec_mul_into x m y;
  y

(* --- Multi-vector (blocked) kernels ------------------------------------ *)

(* entry [o] of [y] from its row sum [acc]; [d] is the row's self-loop
   weight when [unif] *)
let[@inline] store ~unif ~s (yd : Multivec.buffer) (xd : Multivec.buffer) d o acc =
  A1.unsafe_set yd o (if unif then (d *. A1.unsafe_get xd o) +. (s *. acc) else acc)

(* y <- m * x as a gather, one matrix pass serving all K columns: row i
   of [m] produces entry i of every column, summed in the row's column
   order. The accumulators are local float refs, which the compiler keeps
   unboxed in registers. Width 1 takes a direct-index loop; a wider block
   is walked in register groups of 4, then 2, then 1 columns per row (the
   row's entries stay in L1 between groups, and the K entries of state j
   share a cache line in the interleaved layout). Each column is summed
   in the same order at every width, so the result does not depend on
   which other columns ride along. Forward sweeps call this on the
   transposed operator, whose rows list their source states in increasing
   order: entry j is then summed exactly as a scatter [x^T m] over rows
   0, 1, ... would sum it.

   [~uniformize] finishes each row sum as the uniformized operator
   [I + (m - diag exit)/lambda] would (see the interface); rows flagged in
   [skip] are not gathered and keep whatever [y] held. *)
let mul_multi_into ?uniformize ?skip m x y =
  if Multivec.width x <> Multivec.width y then
    invalid_arg "Sparse.mul_multi_into: width mismatch";
  if Multivec.width x = 0 then invalid_arg "Sparse.mul_multi_into: empty block";
  if Multivec.dim x <> m.cols || Multivec.dim y <> m.rows then
    invalid_arg "Sparse.mul_multi_into: dimension mismatch";
  let unif = uniformize <> None in
  let exit = match uniformize with Some (e, _) -> e | None -> [||] in
  let s = match uniformize with Some (_, l) -> 1. /. l | None -> 1. in
  if unif && (m.rows <> m.cols || Vec.dim exit <> m.rows) then
    invalid_arg "Sparse.mul_multi_into: uniformize needs a square matrix";
  let skipping = skip <> None in
  let skip = Option.value skip ~default:Bytes.empty in
  if skipping && Bytes.length skip <> m.rows then
    invalid_arg "Sparse.mul_multi_into: skip length mismatch";
  let k = Multivec.width x in
  let xd = Multivec.data x and yd = Multivec.data y in
  let rp = m.row_ptr and ci = m.col_idx and vs = m.values in
  for i = 0 to m.rows - 1 do
    if not (skipping && Bytes.unsafe_get skip i <> '\000') then begin
      let d = if unif then 1. -. (Array.unsafe_get exit i *. s) else 0. in
      let lo = idx rp i and hi = idx rp (i + 1) - 1 in
      if k = 1 then begin
        let acc = ref 0. in
        for p = lo to hi do
          acc := !acc +. (A1.unsafe_get vs p *. A1.unsafe_get xd (idx ci p))
        done;
        store ~unif ~s yd xd d i !acc
      end
      else begin
        let yb = i * k in
        let c = ref 0 in
        while !c + 4 <= k do
          let c0 = !c in
          let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
          for p = lo to hi do
            let v = A1.unsafe_get vs p in
            let b = (idx ci p * k) + c0 in
            a0 := !a0 +. (v *. A1.unsafe_get xd b);
            a1 := !a1 +. (v *. A1.unsafe_get xd (b + 1));
            a2 := !a2 +. (v *. A1.unsafe_get xd (b + 2));
            a3 := !a3 +. (v *. A1.unsafe_get xd (b + 3))
          done;
          store ~unif ~s yd xd d (yb + c0) !a0;
          store ~unif ~s yd xd d (yb + c0 + 1) !a1;
          store ~unif ~s yd xd d (yb + c0 + 2) !a2;
          store ~unif ~s yd xd d (yb + c0 + 3) !a3;
          c := c0 + 4
        done;
        if !c + 2 <= k then begin
          let c0 = !c in
          let a0 = ref 0. and a1 = ref 0. in
          for p = lo to hi do
            let v = A1.unsafe_get vs p in
            let b = (idx ci p * k) + c0 in
            a0 := !a0 +. (v *. A1.unsafe_get xd b);
            a1 := !a1 +. (v *. A1.unsafe_get xd (b + 1))
          done;
          store ~unif ~s yd xd d (yb + c0) !a0;
          store ~unif ~s yd xd d (yb + c0 + 1) !a1;
          c := c0 + 2
        end;
        if !c < k then begin
          let c0 = !c in
          let a0 = ref 0. in
          for p = lo to hi do
            a0 := !a0 +. (A1.unsafe_get vs p *. A1.unsafe_get xd ((idx ci p * k) + c0))
          done;
          store ~unif ~s yd xd d (yb + c0) !a0
        end
      end
    end
  done

(* --- Solver sweep kernels ----------------------------------------------
   One relaxation sweep of [a x = b]; the iteration/convergence logic
   lives in {!Solver}, which validates [order] as a permutation before
   handing it down. *)

let gauss_seidel_sweep ?order m ~diag ~b ~x =
  let n = m.rows in
  let delta = ref 0. in
  for s = 0 to n - 1 do
    let i = match order with None -> s | Some o -> o.(s) in
    let acc = ref (Array.unsafe_get b i) in
    for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
      let j = idx m.col_idx p in
      if j <> i then
        acc := !acc -. (A1.unsafe_get m.values p *. Array.unsafe_get x j)
    done;
    let xi = !acc /. Array.unsafe_get diag i in
    let change = Float.abs (xi -. Array.unsafe_get x i) in
    if change > !delta then delta := change;
    Array.unsafe_set x i xi
  done;
  !delta

(* Q's off-diagonal entries are R's and -Q(j,j) = exit(j), so this sums
   exactly what a sweep over the rows of Q^T sums, bit for bit. *)
let steady_sweep rt ~exit ~x =
  let delta = ref 0. in
  for j = 0 to rt.rows - 1 do
    let acc = ref 0. in
    for p = idx rt.row_ptr j to idx rt.row_ptr (j + 1) - 1 do
      let i = idx rt.col_idx p in
      if i <> j then
        acc := !acc +. (A1.unsafe_get rt.values p *. Array.unsafe_get x i)
    done;
    let xj = !acc /. Array.unsafe_get exit j in
    let change = Float.abs (xj -. Array.unsafe_get x j) in
    if change > !delta then delta := change;
    Array.unsafe_set x j xj
  done;
  !delta

let gauss_seidel_sweep_multi ?order m ~diag ~b ~x ~deltas =
  let n = m.rows in
  let k = Multivec.width x in
  let bd = Multivec.data b and xd = Multivec.data x in
  Array.fill deltas 0 k 0.;
  let acc = Array.make k 0. in
  for s = 0 to n - 1 do
    let i = match order with None -> s | Some o -> o.(s) in
    let ib = i * k in
    for c = 0 to k - 1 do
      Array.unsafe_set acc c (A1.unsafe_get bd (ib + c))
    done;
    for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
      let j = idx m.col_idx p in
      if j <> i then begin
        let v = A1.unsafe_get m.values p in
        let jb = j * k in
        for c = 0 to k - 1 do
          Array.unsafe_set acc c
            (Array.unsafe_get acc c -. (v *. A1.unsafe_get xd (jb + c)))
        done
      end
    done;
    let di = Array.unsafe_get diag i in
    for c = 0 to k - 1 do
      let xi = Array.unsafe_get acc c /. di in
      let change = Float.abs (xi -. A1.unsafe_get xd (ib + c)) in
      if change > Array.unsafe_get deltas c then
        Array.unsafe_set deltas c change;
      A1.unsafe_set xd (ib + c) xi
    done
  done

(* ----------------------------------------------------------------------- *)

(* Counting sort by column: scattering rows in order leaves each row of
   the transpose sorted. Stored zeros are dropped, as the Builder would. *)
let transpose m =
  let next = Array.make (m.cols + 1) 0 in
  for p = 0 to nnz m - 1 do
    if A1.unsafe_get m.values p <> 0. then begin
      let c = idx m.col_idx p + 1 in
      Array.unsafe_set next c (Array.unsafe_get next c + 1)
    end
  done;
  for c = 1 to m.cols do
    next.(c) <- next.(c) + next.(c - 1)
  done;
  let row_ptr = A1.create Bigarray.int32 Bigarray.c_layout (m.cols + 1) in
  Array.iteri (fun c q -> A1.unsafe_set row_ptr c (Int32.of_int q)) next;
  let col_idx = A1.create Bigarray.int32 Bigarray.c_layout next.(m.cols) in
  let values = A1.create Bigarray.float64 Bigarray.c_layout next.(m.cols) in
  for i = 0 to m.rows - 1 do
    for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
      let x = A1.unsafe_get m.values p in
      if x <> 0. then begin
        let c = idx m.col_idx p in
        let q = Array.unsafe_get next c in
        A1.unsafe_set col_idx q (Int32.of_int i);
        A1.unsafe_set values q x;
        Array.unsafe_set next c (q + 1)
      end
    done
  done;
  { rows = m.cols; cols = m.rows; row_ptr; col_idx; values }

let map f m =
  let n = nnz m in
  let values = A1.create Bigarray.float64 Bigarray.c_layout n in
  for p = 0 to n - 1 do
    A1.unsafe_set values p (f (A1.unsafe_get m.values p))
  done;
  { m with values }

let row_sums m =
  let v = Vec.zeros m.rows in
  iteri m (fun i _ x -> v.(i) <- v.(i) +. x);
  v

let equal ?(eps = 0.) a b =
  a.rows = b.rows && a.cols = b.cols
  && begin
       let ok = ref true in
       iteri a (fun i j x -> if Float.abs (x -. get b i j) > eps then ok := false);
       iteri b (fun i j x -> if Float.abs (x -. get a i j) > eps then ok := false);
       !ok
     end

let pp ppf m =
  Format.fprintf ppf "@[<v>sparse %dx%d (%d nnz)" m.rows m.cols (nnz m);
  iteri m (fun i j x -> Format.fprintf ppf "@,(%d,%d) = %g" i j x);
  Format.fprintf ppf "@]"
