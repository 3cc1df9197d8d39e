(* Packed column indices: every index is below 2^31, and two live in one
   OCaml int, 31 bits each. Index [p] is the low half of word [p / 2]
   when [p] is even and the high half when it is odd, so an index still
   takes 4 bytes, as in an int32 array, but sits on the OCaml heap next
   to the values and decodes with a shift and a mask. *)
type index_array = int array

let half = 31

let max_index = (1 lsl half) - 1

let index_words n = (n + 1) lsr 1

let index_create n : index_array = Array.make (index_words n) 0

let[@inline] idx (a : index_array) p =
  (Array.unsafe_get a (p lsr 1) lsr ((p land 1) * half)) land max_index

let[@inline] set_idx (a : index_array) p v =
  let q = p lsr 1 and sh = (p land 1) * half in
  Array.unsafe_set a q
    (Array.unsafe_get a q land lnot (max_index lsl sh) lor (v lsl sh))

(* CSR over three flat OCaml-heap arrays: row pointers, packed column
   indices and unboxed float values. The kernels below read these
   directly; everything else goes through the bounds-checked accessors. *)
type t = {
  rows : int;
  cols : int;
  row_ptr : int array; (* length rows+1 *)
  col_idx : index_array; (* nnz indices, sorted within each row *)
  values : float array; (* length nnz *)
}

let check_index who kind n =
  if n > max_index then
    invalid_arg (Printf.sprintf "Sparse.%s: %s %d exceeds 2^31 - 1" who kind n)

(* Rows up to this length are column-sorted by insertion sort; longer
   ones by a stable merge sort over a permutation. *)
let insertion_limit = 64

(* Stable sort of entries [lo, hi) of (cols, vals) by column. *)
let sort_row (cols : int array) (vals : float array) lo hi =
  if hi - lo <= insertion_limit then
    for p = lo + 1 to hi - 1 do
      let c = Array.unsafe_get cols p and v = Array.unsafe_get vals p in
      let q = ref (p - 1) in
      while !q >= lo && Array.unsafe_get cols !q > c do
        Array.unsafe_set cols (!q + 1) (Array.unsafe_get cols !q);
        Array.unsafe_set vals (!q + 1) (Array.unsafe_get vals !q);
        decr q
      done;
      Array.unsafe_set cols (!q + 1) c;
      Array.unsafe_set vals (!q + 1) v
    done
  else begin
    let perm = Array.init (hi - lo) (fun q -> lo + q) in
    Array.stable_sort (fun a b -> Int.compare cols.(a) cols.(b)) perm;
    let c = Array.map (fun p -> cols.(p)) perm in
    let v = Array.map (fun p -> vals.(p)) perm in
    Array.blit c 0 cols lo (hi - lo);
    Array.blit v 0 vals lo (hi - lo)
  end

(* The one row rule of both builders: sort entries [lo, hi) stably by
   column, then compact them to [w, ...) (w <= lo) summing duplicates in
   insertion order and dropping exact-zero sums. Returns the new end. *)
let finish_row (cols : int array) (vals : float array) ~w lo hi =
  sort_row cols vals lo hi;
  let w = ref w and p = ref lo in
  while !p < hi do
    let c = Array.unsafe_get cols !p in
    let acc = ref 0. in
    while !p < hi && Array.unsafe_get cols !p = c do
      acc := !acc +. Array.unsafe_get vals !p;
      incr p
    done;
    if !acc <> 0. then begin
      Array.unsafe_set cols !w c;
      Array.unsafe_set vals !w !acc;
      incr w
    end
  done;
  !w

(* the first [n] entries of [a], packed *)
let pack (a : int array) n =
  let packed = index_create n in
  for q = 0 to n - 1 do
    set_idx packed q (Array.unsafe_get a q)
  done;
  packed

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
    check_index "Builder.create" "dimension" (max rows cols);
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
     into column and value arrays, each row goes through [finish_row],
     and the result is packed. *)
  let to_csr b : matrix =
    let rows = b.b_rows and cols = b.b_cols in
    let n = b.count in
    check_index "Builder.to_csr" "entry count" n;
    let ri = b.ri and ci = b.ci and vs = b.vs in
    let next = Array.make (rows + 1) 0 in
    for p = 0 to n - 1 do
      let r = Array.unsafe_get ri p + 1 in
      Array.unsafe_set next r (Array.unsafe_get next r + 1)
    done;
    for r = 1 to rows do
      next.(r) <- next.(r) + next.(r - 1)
    done;
    let col_idx = Array.make n 0 in
    let values = Array.make n 0. in
    for p = 0 to n - 1 do
      let r = Array.unsafe_get ri p in
      let q = Array.unsafe_get next r in
      Array.unsafe_set col_idx q (Array.unsafe_get ci p);
      Array.unsafe_set values q (Array.unsafe_get vs p);
      Array.unsafe_set next r (q + 1)
    done;
    (* [next.(r)] is now the end of row [r], i.e. the start of row r+1 *)
    let row_ptr = Array.make (rows + 1) 0 in
    let w = ref 0 and lo = ref 0 in
    for r = 0 to rows - 1 do
      let hi = next.(r) in
      w := finish_row col_idx values ~w:!w !lo hi;
      row_ptr.(r + 1) <- !w;
      lo := hi
    done;
    let nnz = !w in
    {
      rows;
      cols;
      row_ptr;
      col_idx = pack col_idx nnz;
      values = Array.sub values 0 nnz;
    }
end

module Rows = struct
  type matrix = t

  (* The closed rows' entries in packed buffers that double when full; the
     open row unpacked in a small buffer of its own, where [finish_row]
     sorts and compacts it before it is appended. Sized by an exact
     [capacity], the buffers are never regrown and become the matrix
     without a copy. *)
  type t = {
    mutable o_cols : int array;
    mutable o_vals : float array;
    mutable o_len : int;
    mutable r_cols : index_array;
    mutable r_vals : float array;
    mutable r_ptr : int array;
    mutable rows : int;
    mutable max_col : int;
  }

  let create ?(capacity = 0) () =
    let cap = if capacity > 0 then capacity else 64 in
    {
      o_cols = Array.make 16 0;
      o_vals = Array.make 16 0.;
      o_len = 0;
      r_cols = index_create cap;
      r_vals = Array.make cap 0.;
      r_ptr = Array.make 64 0;
      rows = 0;
      max_col = -1;
    }

  (* a copy of [a] with room for [cap] elements, its first [n] kept *)
  let regrown a n cap fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 n;
    a'

  let add b j x =
    if j < 0 || j > max_index then
      invalid_arg (Printf.sprintf "Sparse.Rows.add: column %d" j);
    let k = b.o_len in
    if k = Array.length b.o_cols then begin
      b.o_cols <- regrown b.o_cols k (2 * k) 0;
      b.o_vals <- regrown b.o_vals k (2 * k) 0.
    end;
    Array.unsafe_set b.o_cols k j;
    Array.unsafe_set b.o_vals k x;
    if j > b.max_col then b.max_col <- j;
    b.o_len <- k + 1

  let end_row b =
    let len = finish_row b.o_cols b.o_vals ~w:0 0 b.o_len in
    let count = b.r_ptr.(b.rows) in
    check_index "Rows.end_row" "entry count" (count + len);
    if count + len > Array.length b.r_vals then begin
      let cap = max (count + len) (2 * Array.length b.r_vals) in
      b.r_cols <- regrown b.r_cols (index_words count) (index_words cap) 0;
      b.r_vals <- regrown b.r_vals count cap 0.
    end;
    for q = 0 to len - 1 do
      set_idx b.r_cols (count + q) (Array.unsafe_get b.o_cols q);
      Array.unsafe_set b.r_vals (count + q) (Array.unsafe_get b.o_vals q)
    done;
    b.o_len <- 0;
    if b.rows + 2 > Array.length b.r_ptr then
      b.r_ptr <- regrown b.r_ptr (b.rows + 1) (2 * Array.length b.r_ptr) 0;
    b.rows <- b.rows + 1;
    b.r_ptr.(b.rows) <- count + len

  let to_csr b ~cols : matrix =
    if b.o_len > 0 then
      invalid_arg "Sparse.Rows.to_csr: the last row is not closed";
    if b.max_col >= cols then
      invalid_arg
        (Printf.sprintf "Sparse.Rows.to_csr: column %d out of %d" b.max_col cols);
    check_index "Rows.to_csr" "dimension" (max b.rows cols);
    let nnz = b.r_ptr.(b.rows) in
    (* entries are only ever appended, so a half word past [nnz] is 0 *)
    let col_idx, values =
      if nnz = Array.length b.r_vals then (b.r_cols, b.r_vals)
      else (Array.sub b.r_cols 0 (index_words nnz), Array.sub b.r_vals 0 nnz)
    in
    { rows = b.rows; cols; row_ptr = Array.sub b.r_ptr 0 (b.rows + 1); col_idx; values }
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

let nnz m = m.row_ptr.(m.rows)

let to_dense m =
  let d = Array.make_matrix m.rows m.cols 0. in
  for i = 0 to m.rows - 1 do
    for p = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      d.(i).(idx m.col_idx p) <- Array.unsafe_get m.values p
    done
  done;
  d

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Sparse.get: out of bounds";
  let lo = ref m.row_ptr.(i) and hi = ref (m.row_ptr.(i + 1) - 1) in
  let result = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = idx m.col_idx mid in
    if c = j then begin
      result := Array.unsafe_get m.values mid;
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let row_start m i =
  if i < 0 || i > m.rows then invalid_arg "Sparse.row_start: out of bounds";
  m.row_ptr.(i)

let col_at m p =
  if p < 0 || p >= nnz m then invalid_arg "Sparse.col_at: out of bounds";
  idx m.col_idx p

let iter_row m i f =
  if i < 0 || i >= m.rows then
    invalid_arg (Printf.sprintf "Sparse.iter_row: row %d out of %d" i m.rows);
  for p = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
    f (idx m.col_idx p) (Array.unsafe_get m.values p)
  done

let iteri m f =
  for i = 0 to m.rows - 1 do
    iter_row m i (fun j x -> f i j x)
  done

let mul_vec_into m x y =
  if Vec.dim x <> m.cols || Vec.dim y <> m.rows then
    invalid_arg "Sparse.mul_vec_into: dimension mismatch";
  for i = 0 to m.rows - 1 do
    let acc = ref 0. in
    for p = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      acc :=
        !acc +. (Array.unsafe_get m.values p *. Array.unsafe_get x (idx m.col_idx p))
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
      for p = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        let j = idx m.col_idx p in
        Array.unsafe_set y j
          (Array.unsafe_get y j +. (xi *. Array.unsafe_get m.values p))
      done
  done

let vec_mul x m =
  let y = Vec.zeros m.cols in
  vec_mul_into x m y;
  y

(* --- Multi-vector (blocked) kernels ------------------------------------ *)

(* The hot loops below walk a row [lo, hi) a packed word at a time: word
   [w] holds entries [2w] (low half) and [2w + 1] (high half). Decoding by
   word costs two constant shifts per two entries; decoding entry by
   entry needs a variable shift and ran ~1.7x slower. Entries are still
   visited in increasing position, so every sum is taken in the same
   order as over an unpacked array. The gathers peel a row's odd first
   entry and odd last entry off its whole words; the relaxation sweeps
   visit the words [lo / 2 .. (hi - 1) / 2] (none when the row is empty:
   [asr] keeps [(0 - 1) / 2] negative) and guard each half with a test
   that fails at most once per row, since only the first and the last
   word can hold an entry of a neighbouring row. *)

(* y <- m * x for a width-1 block, the uniformization sweeps' common
   case: a direct loop per row, in its own function so that the
   compiler keeps the arrays and the accumulator in registers. *)
let gather1 ~unif ~s ~exit ~skipping ~skip m (xd : float array) (yd : float array) =
  let rp = m.row_ptr and ci = m.col_idx and vs = m.values in
  for i = 0 to m.rows - 1 do
    let lo = Array.unsafe_get rp i and hi = Array.unsafe_get rp (i + 1) in
    if not (skipping && Bytes.unsafe_get skip i <> '\000') then begin
      let acc = ref 0. in
      if lo land 1 = 1 && lo < hi then
        acc := !acc +. (Array.unsafe_get vs lo *. Array.unsafe_get xd (idx ci lo));
      for w = (lo + 1) lsr 1 to (hi lsr 1) - 1 do
        let c = Array.unsafe_get ci w and p = 2 * w in
        acc := !acc +. (Array.unsafe_get vs p *. Array.unsafe_get xd (c land max_index));
        acc := !acc +. (Array.unsafe_get vs (p + 1) *. Array.unsafe_get xd (c lsr half))
      done;
      if hi land 1 = 1 && lo < hi then
        acc := !acc +. (Array.unsafe_get vs (hi - 1) *. Array.unsafe_get xd (idx ci (hi - 1)));
      Array.unsafe_set yd i
        (if unif then
           ((1. -. (Array.unsafe_get exit i *. s)) *. Array.unsafe_get xd i) +. (s *. !acc)
         else !acc)
    end
  done

(* entry [o] of [y] from its row sum [acc]; [d] is the row's self-loop
   weight when [unif] *)
let[@inline] store ~unif ~s (yd : float array) (xd : float array) d o acc =
  Array.unsafe_set yd o
    (if unif then (d *. Array.unsafe_get xd o) +. (s *. acc) else acc)

(* y <- m * x for a block of [k >= 2] columns, in register groups of 4,
   then 2, then 1 columns per row *)
let gather_k ~unif ~s ~exit ~skipping ~skip m k (xd : float array) (yd : float array) =
  let rp = m.row_ptr and ci = m.col_idx and vs = m.values in
  for i = 0 to m.rows - 1 do
    let lo = Array.unsafe_get rp i and hi = Array.unsafe_get rp (i + 1) in
    if not (skipping && Bytes.unsafe_get skip i <> '\000') then begin
      let d = if unif then 1. -. (Array.unsafe_get exit i *. s) else 0. in
      let yb = i * k in
      let c = ref 0 in
      while !c + 4 <= k do
        let c0 = !c in
        let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
        if lo land 1 = 1 && lo < hi then begin
          let v = Array.unsafe_get vs lo and b = (idx ci lo * k) + c0 in
          a0 := !a0 +. (v *. Array.unsafe_get xd b);
          a1 := !a1 +. (v *. Array.unsafe_get xd (b + 1));
          a2 := !a2 +. (v *. Array.unsafe_get xd (b + 2));
          a3 := !a3 +. (v *. Array.unsafe_get xd (b + 3))
        end;
        for w = (lo + 1) lsr 1 to (hi lsr 1) - 1 do
          let cw = Array.unsafe_get ci w and p = 2 * w in
          let v = Array.unsafe_get vs p and b = ((cw land max_index) * k) + c0 in
          a0 := !a0 +. (v *. Array.unsafe_get xd b);
          a1 := !a1 +. (v *. Array.unsafe_get xd (b + 1));
          a2 := !a2 +. (v *. Array.unsafe_get xd (b + 2));
          a3 := !a3 +. (v *. Array.unsafe_get xd (b + 3));
          let v = Array.unsafe_get vs (p + 1) and b = ((cw lsr half) * k) + c0 in
          a0 := !a0 +. (v *. Array.unsafe_get xd b);
          a1 := !a1 +. (v *. Array.unsafe_get xd (b + 1));
          a2 := !a2 +. (v *. Array.unsafe_get xd (b + 2));
          a3 := !a3 +. (v *. Array.unsafe_get xd (b + 3))
        done;
        if hi land 1 = 1 && lo < hi then begin
          let v = Array.unsafe_get vs (hi - 1) and b = (idx ci (hi - 1) * k) + c0 in
          a0 := !a0 +. (v *. Array.unsafe_get xd b);
          a1 := !a1 +. (v *. Array.unsafe_get xd (b + 1));
          a2 := !a2 +. (v *. Array.unsafe_get xd (b + 2));
          a3 := !a3 +. (v *. Array.unsafe_get xd (b + 3))
        end;
        store ~unif ~s yd xd d (yb + c0) !a0;
        store ~unif ~s yd xd d (yb + c0 + 1) !a1;
        store ~unif ~s yd xd d (yb + c0 + 2) !a2;
        store ~unif ~s yd xd d (yb + c0 + 3) !a3;
        c := c0 + 4
      done;
      if !c + 2 <= k then begin
        let c0 = !c in
        let a0 = ref 0. and a1 = ref 0. in
        if lo land 1 = 1 && lo < hi then begin
          let v = Array.unsafe_get vs lo and b = (idx ci lo * k) + c0 in
          a0 := !a0 +. (v *. Array.unsafe_get xd b);
          a1 := !a1 +. (v *. Array.unsafe_get xd (b + 1))
        end;
        for w = (lo + 1) lsr 1 to (hi lsr 1) - 1 do
          let cw = Array.unsafe_get ci w and p = 2 * w in
          let v = Array.unsafe_get vs p and b = ((cw land max_index) * k) + c0 in
          a0 := !a0 +. (v *. Array.unsafe_get xd b);
          a1 := !a1 +. (v *. Array.unsafe_get xd (b + 1));
          let v = Array.unsafe_get vs (p + 1) and b = ((cw lsr half) * k) + c0 in
          a0 := !a0 +. (v *. Array.unsafe_get xd b);
          a1 := !a1 +. (v *. Array.unsafe_get xd (b + 1))
        done;
        if hi land 1 = 1 && lo < hi then begin
          let v = Array.unsafe_get vs (hi - 1) and b = (idx ci (hi - 1) * k) + c0 in
          a0 := !a0 +. (v *. Array.unsafe_get xd b);
          a1 := !a1 +. (v *. Array.unsafe_get xd (b + 1))
        end;
        store ~unif ~s yd xd d (yb + c0) !a0;
        store ~unif ~s yd xd d (yb + c0 + 1) !a1;
        c := c0 + 2
      end;
      if !c < k then begin
        let c0 = !c in
        let a0 = ref 0. in
        if lo land 1 = 1 && lo < hi then
          a0 := !a0 +. (Array.unsafe_get vs lo *. Array.unsafe_get xd ((idx ci lo * k) + c0));
        for w = (lo + 1) lsr 1 to (hi lsr 1) - 1 do
          let cw = Array.unsafe_get ci w and p = 2 * w in
          a0 :=
            !a0 +. (Array.unsafe_get vs p *. Array.unsafe_get xd (((cw land max_index) * k) + c0));
          a0 :=
            !a0 +. (Array.unsafe_get vs (p + 1) *. Array.unsafe_get xd (((cw lsr half) * k) + c0))
        done;
        if hi land 1 = 1 && lo < hi then
          a0 :=
            !a0 +. (Array.unsafe_get vs (hi - 1) *. Array.unsafe_get xd ((idx ci (hi - 1) * k) + c0));
        store ~unif ~s yd xd d (yb + c0) !a0
      end
    end
  done

(* y <- m * x as a gather, one matrix pass serving all K columns: row i
   of [m] produces entry i of every column, summed in the row's column
   order. The accumulators are local float refs, which the compiler keeps
   unboxed in registers. Width 1 takes a direct loop; a wider block is
   walked in register groups of 4, then 2, then 1 columns per row (the
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
  if k = 1 then
    gather1 ~unif ~s ~exit ~skipping ~skip m (Multivec.data x) (Multivec.data y)
  else
    gather_k ~unif ~s ~exit ~skipping ~skip m k (Multivec.data x) (Multivec.data y)

(* --- Solver sweep kernels ----------------------------------------------
   One relaxation sweep of [a x = b]; the iteration/convergence logic
   lives in {!Solver}, which validates [order] as a permutation before
   handing it down. Rows are walked a packed word at a time, as in the
   gather. *)

let gauss_seidel_sweep ?order m ~diag ~b ~x =
  let n = m.rows in
  let ci = m.col_idx and vs = m.values in
  let delta = ref 0. in
  for s = 0 to n - 1 do
    let i = match order with None -> s | Some o -> o.(s) in
    let lo = m.row_ptr.(i) and hi = m.row_ptr.(i + 1) in
    let acc = ref (Array.unsafe_get b i) in
    for w = lo lsr 1 to (hi - 1) asr 1 do
      let c = Array.unsafe_get ci w and p = 2 * w in
      let j = c land max_index in
      if p >= lo && j <> i then
        acc := !acc -. (Array.unsafe_get vs p *. Array.unsafe_get x j);
      let j = c lsr half in
      if p + 1 < hi && j <> i then
        acc := !acc -. (Array.unsafe_get vs (p + 1) *. Array.unsafe_get x j)
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
  let ci = rt.col_idx and vs = rt.values in
  let delta = ref 0. in
  for j = 0 to rt.rows - 1 do
    let lo = Array.unsafe_get rt.row_ptr j and hi = Array.unsafe_get rt.row_ptr (j + 1) in
    let acc = ref 0. in
    for w = lo lsr 1 to (hi - 1) asr 1 do
      let c = Array.unsafe_get ci w and p = 2 * w in
      let i = c land max_index in
      if p >= lo && i <> j then
        acc := !acc +. (Array.unsafe_get vs p *. Array.unsafe_get x i);
      let i = c lsr half in
      if p + 1 < hi && i <> j then
        acc := !acc +. (Array.unsafe_get vs (p + 1) *. Array.unsafe_get x i)
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
  let ci = m.col_idx and vs = m.values in
  Array.fill deltas 0 k 0.;
  let acc = Array.make k 0. in
  (* acc <- acc - v * x(j, :) *)
  let[@inline] sub v j =
    let jb = j * k in
    for c = 0 to k - 1 do
      Array.unsafe_set acc c
        (Array.unsafe_get acc c -. (v *. Array.unsafe_get xd (jb + c)))
    done
  in
  for s = 0 to n - 1 do
    let i = match order with None -> s | Some o -> o.(s) in
    let lo = m.row_ptr.(i) and hi = m.row_ptr.(i + 1) in
    let ib = i * k in
    Array.blit bd ib acc 0 k;
    for w = lo lsr 1 to (hi - 1) asr 1 do
      let c = Array.unsafe_get ci w and p = 2 * w in
      let j = c land max_index in
      if p >= lo && j <> i then sub (Array.unsafe_get vs p) j;
      let j = c lsr half in
      if p + 1 < hi && j <> i then sub (Array.unsafe_get vs (p + 1)) j
    done;
    let di = Array.unsafe_get diag i in
    for c = 0 to k - 1 do
      let xi = Array.unsafe_get acc c /. di in
      let change = Float.abs (xi -. Array.unsafe_get xd (ib + c)) in
      if change > Array.unsafe_get deltas c then
        Array.unsafe_set deltas c change;
      Array.unsafe_set xd (ib + c) xi
    done
  done

(* ----------------------------------------------------------------------- *)

(* Counting sort by column: scattering rows in order leaves each row of
   the transpose sorted. Stored zeros are dropped, as the Builder would. *)
let transpose m =
  let n = nnz m and ci = m.col_idx and vs = m.values in
  let next = Array.make (m.cols + 1) 0 in
  let[@inline] count p c =
    if Array.unsafe_get vs p <> 0. then
      Array.unsafe_set next (c + 1) (Array.unsafe_get next (c + 1) + 1)
  in
  for w = 0 to (n - 1) asr 1 do
    let c = Array.unsafe_get ci w and p = 2 * w in
    count p (c land max_index);
    if p + 1 < n then count (p + 1) (c lsr half)
  done;
  for c = 1 to m.cols do
    next.(c) <- next.(c) + next.(c - 1)
  done;
  let row_ptr = Array.copy next in
  let col_idx = index_create next.(m.cols) in
  let values = Array.make next.(m.cols) 0. in
  let[@inline] put i p c =
    let x = Array.unsafe_get vs p in
    if x <> 0. then begin
      let q = Array.unsafe_get next c in
      set_idx col_idx q i;
      Array.unsafe_set values q x;
      Array.unsafe_set next c (q + 1)
    end
  in
  for i = 0 to m.rows - 1 do
    let lo = m.row_ptr.(i) and hi = m.row_ptr.(i + 1) in
    for w = lo lsr 1 to (hi - 1) asr 1 do
      let c = Array.unsafe_get ci w and p = 2 * w in
      if p >= lo then put i p (c land max_index);
      if p + 1 < hi then put i (p + 1) (c lsr half)
    done
  done;
  { rows = m.cols; cols = m.rows; row_ptr; col_idx; values }

let map f m = { m with values = Array.map f m.values }

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
