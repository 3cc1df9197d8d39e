(* Tests for the numerical substrate: vectors, sparse matrices, Fox-Glynn
   Poisson weights, iterative solvers, graph algorithms and the PRNG. *)

module Vec = Numeric.Vec
module Multivec = Numeric.Multivec
module Sparse = Numeric.Sparse
module Intern = Numeric.Intern
module Fox_glynn = Numeric.Fox_glynn
module Solver = Numeric.Solver
module Digraph = Numeric.Digraph
module Rng = Numeric.Rng
module Parallel = Numeric.Parallel

let check_float = Alcotest.(check (float 1e-9))

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_basics () =
  let v = Vec.create 4 2.5 in
  check_float "sum" 10. (Vec.sum v);
  check_float "dot" 25. (Vec.dot v v);
  let u = Vec.unit 4 2 in
  check_float "unit dot" 2.5 (Vec.dot v u);
  check_float "linf" 2.5 (Vec.linf_distance v (Vec.zeros 4));
  Alcotest.(check bool) "unit is distribution" true (Vec.is_distribution u);
  Alcotest.(check bool) "v is not distribution" false (Vec.is_distribution v)

let test_vec_axpy () =
  let x = [| 1.; 2.; 3. |] and y = [| 10.; 20.; 30. |] in
  Vec.axpy 2. x y;
  Alcotest.(check (array (float 1e-12))) "axpy" [| 12.; 24.; 36. |] y

let test_vec_normalize () =
  let v = [| 1.; 3. |] in
  Vec.normalize_l1 v;
  check_float "normalized head" 0.25 v.(0);
  Alcotest.check_raises "normalize zero" (Invalid_argument "Vec.normalize_l1: non-positive sum")
    (fun () -> Vec.normalize_l1 (Vec.zeros 3))

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.; 2. |] [| 1.; 2.; 3. |]))

(* ------------------------------------------------------------------ *)
(* Multivec *)

let test_multivec_basics () =
  let mv = Multivec.create ~dim:3 ~width:2 in
  Alcotest.(check int) "dim" 3 (Multivec.dim mv);
  Alcotest.(check int) "width" 2 (Multivec.width mv);
  Multivec.set mv 1 0 5.;
  Multivec.set mv 2 1 (-1.5);
  check_float "get" 5. (Multivec.get mv 1 0);
  check_float "still zero" 0. (Multivec.get mv 0 1);
  Alcotest.(check (array (float 0.))) "col 0" [| 0.; 5.; 0. |]
    (Multivec.col mv 0);
  Alcotest.(check (array (float 0.))) "col 1" [| 0.; 0.; -1.5 |]
    (Multivec.col mv 1)

let test_multivec_cols_roundtrip () =
  let cols = [| [| 1.; 2.; 3. |]; [| -4.; 0.; 6. |] |] in
  let mv = Multivec.of_cols cols in
  Alcotest.(check (array (array (float 0.)))) "roundtrip" cols
    (Multivec.to_cols mv);
  Multivec.set_col mv 1 [| 7.; 8.; 9. |];
  Alcotest.(check (array (float 0.))) "set_col" [| 7.; 8.; 9. |]
    (Multivec.col mv 1);
  Alcotest.(check (array (float 0.))) "other col intact" [| 1.; 2.; 3. |]
    (Multivec.col mv 0)

let test_multivec_axpy () =
  let mv = Multivec.of_cols [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let y = [| 10.; 20. |] in
  Multivec.axpy_from_col 2. mv 1 y;
  Alcotest.(check (array (float 0.))) "y += 2 * col 1" [| 16.; 28. |] y;
  Alcotest.(check (array (float 0.))) "source intact" [| 3.; 4. |]
    (Multivec.col mv 1)

let test_multivec_errors () =
  Alcotest.check_raises "bad shape"
    (Invalid_argument "Multivec.create: bad shape") (fun () ->
      ignore (Multivec.create ~dim:(-1) ~width:2));
  Alcotest.check_raises "no columns"
    (Invalid_argument "Multivec.of_cols: no columns") (fun () ->
      ignore (Multivec.of_cols [||]));
  Alcotest.check_raises "ragged"
    (Invalid_argument "Multivec.of_cols: ragged columns") (fun () ->
      ignore (Multivec.of_cols [| [| 1. |]; [| 1.; 2. |] |]));
  let mv = Multivec.create ~dim:2 ~width:2 in
  Alcotest.check_raises "column out of range"
    (Invalid_argument "Multivec.col: column out of range") (fun () ->
      ignore (Multivec.col mv 2));
  Alcotest.check_raises "col_into column out of range"
    (Invalid_argument "Multivec.col_into: column out of range") (fun () ->
      Multivec.col_into mv (-1) [| 0.; 0. |]);
  Alcotest.check_raises "col_into dimension"
    (Invalid_argument "Multivec.col_into: dimension mismatch") (fun () ->
      Multivec.col_into mv 0 [| 0. |]);
  Multivec.set mv 1 1 7.;
  let dst = [| 1.; 1. |] in
  Multivec.col_into mv 1 dst;
  Alcotest.(check (array (float 0.))) "col_into copies the column" [| 0.; 7. |]
    dst

(* ------------------------------------------------------------------ *)
(* Sparse *)

let example_matrix () =
  Sparse.of_triplets ~rows:3 ~cols:3
    [ (0, 1, 2.); (1, 0, 3.); (1, 2, 1.); (2, 2, 5.); (0, 1, 1.) ]

let test_sparse_build_get () =
  let m = example_matrix () in
  check_float "duplicates summed" 3. (Sparse.get m 0 1);
  check_float "simple" 3. (Sparse.get m 1 0);
  check_float "absent" 0. (Sparse.get m 0 0);
  Alcotest.(check int) "nnz" 4 (Sparse.nnz m)

let test_sparse_dense_roundtrip () =
  let d = [| [| 0.; 1.5; 0. |]; [| 2.; 0.; -3. |] |] in
  let m = Sparse.of_dense d in
  Alcotest.(check (array (array (float 0.)))) "roundtrip" d (Sparse.to_dense m)

let test_sparse_mul_vec () =
  let m = example_matrix () in
  let x = [| 1.; 2.; 3. |] in
  (* rows: [0 3 0; 3 0 1; 0 0 5] *)
  Alcotest.(check (array (float 1e-12))) "m*x" [| 6.; 6.; 15. |] (Sparse.mul_vec m x);
  Alcotest.(check (array (float 1e-12))) "x*m" [| 6.; 3.; 17. |] (Sparse.vec_mul x m)

let test_sparse_transpose () =
  let m = example_matrix () in
  let t = Sparse.transpose m in
  check_float "transpose" 3. (Sparse.get t 1 0);
  check_float "transpose2" 3. (Sparse.get t 0 1);
  Alcotest.(check bool) "double transpose" true
    (Sparse.equal m (Sparse.transpose t))

let test_sparse_row_sums () =
  let m = example_matrix () in
  Alcotest.(check (array (float 1e-12))) "row sums" [| 3.; 4.; 5. |] (Sparse.row_sums m)

let test_sparse_zero_dropped () =
  let m = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.); (0, 0, -1.); (1, 1, 2.) ] in
  Alcotest.(check int) "exact zero dropped" 1 (Sparse.nnz m)

let test_sparse_bounds () =
  let m = example_matrix () in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Sparse.get: out of bounds") (fun () ->
      ignore (Sparse.get m 3 0));
  Alcotest.check_raises "get negative"
    (Invalid_argument "Sparse.get: out of bounds") (fun () ->
      ignore (Sparse.get m 0 (-1)));
  Alcotest.check_raises "iter_row too large"
    (Invalid_argument "Sparse.iter_row: row 3 out of 3") (fun () ->
      Sparse.iter_row m 3 (fun _ _ -> ()));
  Alcotest.check_raises "iter_row negative"
    (Invalid_argument "Sparse.iter_row: row -1 out of 3") (fun () ->
      Sparse.iter_row m (-1) (fun _ _ -> ()))

let test_sparse_mul_multi () =
  let m = example_matrix () in
  (* rows: [0 3 0; 3 0 1; 0 0 5] *)
  let x = Multivec.of_cols [| [| 1.; 2.; 3. |]; [| 0.; 1.; 0. |] |] in
  let y = Multivec.create ~dim:3 ~width:2 in
  Sparse.mul_multi_into m x y;
  Alcotest.(check (array (float 1e-12))) "m*x col 0" [| 6.; 6.; 15. |]
    (Multivec.col y 0);
  Alcotest.(check (array (float 1e-12))) "m*x col 1" [| 3.; 0.; 0. |]
    (Multivec.col y 1);
  (* x*m is the gather over the transpose *)
  Sparse.mul_multi_into (Sparse.transpose m) x y;
  Alcotest.(check (array (float 1e-12))) "x*m col 0" [| 6.; 3.; 17. |]
    (Multivec.col y 0);
  Alcotest.(check (array (float 1e-12))) "x*m col 1" [| 3.; 0.; 1. |]
    (Multivec.col y 1)

let test_sparse_multi_shape_mismatch () =
  let m = example_matrix () in
  let x = Multivec.create ~dim:3 ~width:2 in
  let y = Multivec.create ~dim:3 ~width:3 in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Sparse.mul_multi_into: width mismatch") (fun () ->
      Sparse.mul_multi_into m x y)

let sparse_triplets_gen =
  QCheck.Gen.(
    let* rows = int_range 1 8 in
    let* cols = int_range 1 8 in
    let* n = int_range 0 20 in
    let* entries =
      list_size (return n)
        (triple (int_range 0 (rows - 1)) (int_range 0 (cols - 1))
           (float_range (-10.) 10.))
    in
    return (rows, cols, entries))

(* Triplets with duplicates, explicit zeros, cancellations to zero, empty
   rows and (with few rows and up to 400 entries) rows longer than 64
   entries. *)
let builder_triplets_gen =
  QCheck.Gen.(
    let* rows = int_range 1 8 in
    let* cols = int_range 1 90 in
    let* n = int_range 0 400 in
    let value =
      oneof [ return 0.; return 1.; return (-0.5); return 0.1; float_range (-5.) 5. ]
    in
    let* entries =
      list_size (return n)
        (quad (int_range 0 (rows - 1)) (int_range 0 (cols - 1)) value bool)
    in
    (* a [true] flag appends the entry's negation: the pair sums to zero *)
    return
      ( rows,
        cols,
        List.concat_map
          (fun (i, j, x, cancel) -> if cancel then [ (i, j, x); (i, j, -.x) ] else [ (i, j, x) ])
          entries ))

let prop_builder_matches_dense =
  QCheck.Test.make ~count:300
    ~name:"builder equals an insertion-order dense sum, columns increasing"
    (QCheck.make builder_triplets_gen)
    (fun (rows, cols, entries) ->
      let b = Sparse.Builder.create ~rows ~cols in
      let dense = Array.make_matrix rows cols 0. in
      List.iter
        (fun (i, j, x) ->
          Sparse.Builder.add b i j x;
          dense.(i).(j) <- dense.(i).(j) +. x)
        entries;
      let rejected i j =
        match Sparse.Builder.add b i j 1. with
        | exception Invalid_argument _ -> true
        | () -> false
      in
      let out_of_range =
        rejected rows 0 && rejected 0 cols && rejected (-1) 0 && rejected 0 (-1)
      in
      let m = Sparse.Builder.to_csr b in
      let stored = ref 0 in
      let exact = ref true in
      for i = 0 to rows - 1 do
        let last = ref (-1) in
        Sparse.iter_row m i (fun j x ->
            if j <= !last || x = 0. then exact := false;
            last := j)
      done;
      Array.iter
        (Array.iter (fun x -> if x <> 0. then incr stored))
        dense;
      let same =
        Array.for_all2
          (Array.for_all2 (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)))
          dense (Sparse.to_dense m)
      in
      out_of_range && !exact && same && Sparse.nnz m = !stored
      && Sparse.rows m = rows && Sparse.cols m = cols)

let prop_spmv_matches_dense =
  QCheck.Test.make ~count:200 ~name:"sparse mul_vec matches dense multiply"
    (QCheck.make sparse_triplets_gen)
    (fun (rows, cols, entries) ->
      let m = Sparse.of_triplets ~rows ~cols entries in
      let d = Sparse.to_dense m in
      let x = Array.init cols (fun i -> float_of_int (i + 1)) in
      let expected =
        Array.init rows (fun i ->
            Array.fold_left ( +. ) 0. (Array.mapi (fun j v -> v *. x.(j)) d.(i)))
      in
      let got = Sparse.mul_vec m x in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) expected got)

let prop_transpose_involution =
  QCheck.Test.make ~count:200 ~name:"transpose is an involution"
    (QCheck.make sparse_triplets_gen)
    (fun (rows, cols, entries) ->
      let m = Sparse.of_triplets ~rows ~cols entries in
      Sparse.equal m (Sparse.transpose (Sparse.transpose m)))

(* The triplet route the counting-sort transpose replaced. *)
let builder_transpose m =
  let b = Sparse.Builder.create ~rows:(Sparse.cols m) ~cols:(Sparse.rows m) in
  Sparse.iteri m (fun i j x -> Sparse.Builder.add b j i x);
  Sparse.Builder.to_csr b

let entries_bits m =
  let acc = ref [] in
  Sparse.iteri m (fun i j x -> acc := (i, j, Int64.bits_of_float x) :: !acc);
  !acc

(* Stored zeros (left by [map]) must be dropped as the Builder drops them;
   everything else keeps its bits and its row order. *)
let prop_transpose_matches_builder =
  QCheck.Test.make ~count:200 ~name:"transpose = Builder transpose"
    (QCheck.make builder_triplets_gen)
    (fun (rows, cols, entries) ->
      let m = Sparse.of_triplets ~rows ~cols entries in
      let m = Sparse.map (fun x -> if x > 1. then 0. else x) m in
      let t = Sparse.transpose m and r = builder_transpose m in
      Sparse.rows t = Sparse.rows r
      && Sparse.cols t = Sparse.cols r
      && entries_bits t = entries_bits r)

(* Rows streamed in row order give the Builder's matrix, bit for bit:
   same sort, duplicate sums, dropped zeros and empty rows. *)
let prop_rows_match_builder =
  QCheck.Test.make ~count:300 ~name:"Rows stream = Builder"
    (QCheck.make builder_triplets_gen)
    (fun (rows, cols, entries) ->
      let b = Sparse.Rows.create () in
      for r = 0 to rows - 1 do
        List.iter (fun (i, j, x) -> if i = r then Sparse.Rows.add b j x) entries;
        Sparse.Rows.end_row b
      done;
      let m = Sparse.Rows.to_csr b ~cols in
      let r = Sparse.of_triplets ~rows ~cols entries in
      Sparse.rows m = rows
      && Sparse.cols m = cols
      && entries_bits m = entries_bits r)

let test_rows_errors () =
  let b = Sparse.Rows.create () in
  Alcotest.check_raises "negative column"
    (Invalid_argument "Sparse.Rows.add: column -1") (fun () -> Sparse.Rows.add b (-1) 1.);
  Sparse.Rows.add b 3 1.;
  Alcotest.check_raises "open row"
    (Invalid_argument "Sparse.Rows.to_csr: the last row is not closed") (fun () ->
      ignore (Sparse.Rows.to_csr b ~cols:4));
  Sparse.Rows.end_row b;
  Alcotest.check_raises "column out of range"
    (Invalid_argument "Sparse.Rows.to_csr: column 3 out of 3") (fun () ->
      ignore (Sparse.Rows.to_csr b ~cols:3));
  let m = Sparse.Rows.to_csr b ~cols:4 in
  Alcotest.(check (float 0.)) "entry" 1. (Sparse.get m 0 3)

(* Every width 1..9, so the kernel's register groups of 4, 2 and 1
   columns all run with every remainder; results must be bit-identical to
   the single-vector products, the forward case ([x^T m]) through the
   gather over [transpose m]. The uniformized and masked gathers run on
   the square matrix of the same entries (its extra rows are empty, and
   its rows start at even and odd entry offsets, both halves of a packed
   index word) and on its transpose, against a per-row reference summed
   in column order. *)
let prop_blocked_matches_columns =
  QCheck.Test.make ~count:300
    ~name:"blocked multi kernels match per-column products"
    (QCheck.make
       QCheck.Gen.(pair sparse_triplets_gen (int_range 1 9)))
    (fun ((rows, cols, entries), width) ->
      let m = Sparse.of_triplets ~rows ~cols entries in
      let same a b =
        Array.for_all2
          (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
          a b
      in
      let columns_match xs product got =
        Array.for_all
          (fun c -> same (product xs.(c)) (Multivec.col got c))
          (Array.init width Fun.id)
      in
      let xs =
        Array.init width (fun c ->
            Array.init cols (fun i ->
                (* exact zeros: rows the scatter [vec_mul] skips *)
                if (i + c) mod 3 = 0 then 0.
                else float_of_int (((c + 1) * (i + 2)) mod 7) -. 3.))
      in
      let y = Multivec.create ~dim:rows ~width in
      Sparse.mul_multi_into m (Multivec.of_cols xs) y;
      let backward_ok = columns_match xs (Sparse.mul_vec m) y in
      let zs =
        Array.init width (fun c ->
            Array.init rows (fun i ->
                if (i + c) mod 2 = 0 then float_of_int (i - c) /. 3. else 0.))
      in
      let w = Multivec.create ~dim:cols ~width in
      Sparse.mul_multi_into (Sparse.transpose m) (Multivec.of_cols zs) w;
      let forward_ok = columns_match zs (fun z -> Sparse.vec_mul z m) w in
      let n = max rows cols in
      let uniformized_ok op =
        let exit = Array.init n (fun i -> float_of_int ((i * 5 mod 7) + 1) /. 3.) in
        let lambda = 7.25 in
        let skip = Bytes.init n (fun i -> if i mod 3 = 1 then '\001' else '\000') in
        let us =
          Array.init width (fun c ->
              Array.init n (fun i ->
                  if (i + c) mod 4 = 0 then 0. else float_of_int (i - (2 * c)) /. 7.))
        in
        (* what a row computes: its entries' products summed in column
           order, then one reciprocal of lambda serving both scalings *)
        let reference i u =
          let acc = ref 0. in
          Sparse.iter_row op i (fun j v -> acc := !acc +. (v *. u.(j)));
          let s = 1. /. lambda in
          ((1. -. (exit.(i) *. s)) *. u.(i)) +. (s *. !acc)
        in
        let x = Multivec.of_cols us in
        let y = Multivec.create ~dim:n ~width in
        Sparse.mul_multi_into ~uniformize:(exit, lambda) op x y;
        let plain_ok =
          Array.for_all
            (fun c -> same (Array.init n (fun i -> reference i us.(c))) (Multivec.col y c))
            (Array.init width Fun.id)
        in
        let kept i c = float_of_int (1000 + (10 * i) + c) in
        let y = Multivec.create ~dim:n ~width in
        for i = 0 to n - 1 do
          for c = 0 to width - 1 do
            Multivec.set y i c (kept i c)
          done
        done;
        Sparse.mul_multi_into ~uniformize:(exit, lambda) ~skip op x y;
        let skip_ok =
          Array.for_all
            (fun c ->
              same
                (Array.init n (fun i ->
                     if Bytes.get skip i <> '\000' then kept i c else reference i us.(c)))
                (Multivec.col y c))
            (Array.init width Fun.id)
        in
        plain_ok && skip_ok
      in
      let sq = Sparse.of_triplets ~rows:n ~cols:n entries in
      backward_ok && forward_ok && uniformized_ok sq
      && uniformized_ok (Sparse.transpose sq))

(* ------------------------------------------------------------------ *)
(* Fox-Glynn *)

let poisson_pmf lambda k =
  (* direct computation in log space, reliable for moderate lambda *)
  let log_p =
    (float_of_int k *. Float.log lambda) -. lambda
    -.
    let acc = ref 0. in
    for i = 2 to k do
      acc := !acc +. Float.log (float_of_int i)
    done;
    !acc
  in
  Float.exp log_p

let test_fox_glynn_small () =
  let fg = Fox_glynn.compute 3.7 in
  for k = 0 to 15 do
    check_close ~eps:1e-10
      (Printf.sprintf "pmf at %d" k)
      (poisson_pmf 3.7 k) (Fox_glynn.pmf fg k)
  done

let test_fox_glynn_mass () =
  List.iter
    (fun lambda ->
      let fg = Fox_glynn.compute lambda in
      let mass = Fox_glynn.total_mass fg in
      Alcotest.(check bool)
        (Printf.sprintf "mass near 1 for lambda=%g (got %.15f)" lambda mass)
        true
        (mass <= 1. +. 1e-9 && mass >= 1. -. 1e-6))
    [ 0.001; 0.5; 1.; 10.; 100.; 1_000.; 10_000.; 250_000. ]

let test_fox_glynn_zero () =
  let fg = Fox_glynn.compute 0. in
  check_float "lambda 0" 1. (Fox_glynn.pmf fg 0);
  check_float "lambda 0 tail" 0. (Fox_glynn.pmf fg 1)

let test_fox_glynn_window () =
  let lambda = 10_000. in
  let fg = Fox_glynn.compute lambda in
  let open Fox_glynn in
  Alcotest.(check bool) "mode inside window" true
    (fg.left <= 10_000 && 10_000 <= fg.right);
  (* window should be a few std deviations, i.e. O(sqrt lambda) wide *)
  Alcotest.(check bool) "window reasonably tight" true
    (fg.right - fg.left < 20 * int_of_float (sqrt lambda))

let test_fox_glynn_tail () =
  let fg = Fox_glynn.compute 5. in
  let tail = Fox_glynn.cumulative_tail fg in
  check_close ~eps:1e-9 "tail at left = total" (Fox_glynn.total_mass fg) tail.(0);
  let n = Array.length tail in
  check_float "tail end" 0. tail.(n - 1)

let test_fox_glynn_invalid () =
  let bad_lambda = "Fox_glynn.compute: lambda must be finite and non-negative" in
  Alcotest.check_raises "negative lambda" (Invalid_argument bad_lambda)
    (fun () -> ignore (Fox_glynn.compute (-1.)));
  Alcotest.check_raises "nan lambda" (Invalid_argument bad_lambda) (fun () ->
      ignore (Fox_glynn.compute Float.nan));
  Alcotest.check_raises "infinite lambda" (Invalid_argument bad_lambda)
    (fun () -> ignore (Fox_glynn.compute Float.infinity));
  let bad_eps = "Fox_glynn.compute: epsilon out of (0,1)" in
  Alcotest.check_raises "zero epsilon" (Invalid_argument bad_eps) (fun () ->
      ignore (Fox_glynn.compute ~epsilon:0. 1.));
  Alcotest.check_raises "nan epsilon" (Invalid_argument bad_eps) (fun () ->
      ignore (Fox_glynn.compute ~epsilon:Float.nan 1.));
  Alcotest.check_raises "infinite epsilon" (Invalid_argument bad_eps)
    (fun () -> ignore (Fox_glynn.compute ~epsilon:Float.infinity 1.))

(* ------------------------------------------------------------------ *)
(* Solver *)

let test_gauss_seidel_diag_dominant () =
  (* 4x + y = 9; x + 5y = 16 -> x = 29/19? compute directly *)
  let a = Sparse.of_dense [| [| 4.; 1. |]; [| 1.; 5. |] |] in
  let b = [| 9.; 16. |] in
  let x, conv = Solver.solve_gauss_seidel a b in
  Alcotest.(check bool) "converged" true conv.Solver.converged;
  check_close ~eps:1e-9 "x0" (29. /. 19.) x.(0);
  check_close ~eps:1e-9 "x1" (55. /. 19.) x.(1)

let test_gs_zero_diagonal () =
  let a = Sparse.of_dense [| [| 0.; 1. |]; [| 1.; 1. |] |] in
  Alcotest.check_raises "zero diagonal"
    (Invalid_argument "Solver.solve_gauss_seidel: zero diagonal at row 0") (fun () ->
      ignore (Solver.solve_gauss_seidel a [| 1.; 1. |]))

(* a starting iterate of the wrong length is rejected before any sweep,
   never copied and swept out of bounds *)
let test_gs_x0_mismatch () =
  let a =
    Sparse.of_dense [| [| 4.; 1.; 0. |]; [| 1.; 4.; 1. |]; [| 0.; 1.; 4. |] |]
  in
  let b = [| 1.; 2.; 3. |] in
  List.iter
    (fun x0 ->
      Alcotest.check_raises
        (Printf.sprintf "x0 of length %d" (Array.length x0))
        (Invalid_argument "Solver.solve_gauss_seidel: x0 dimension mismatch")
        (fun () -> ignore (Solver.solve_gauss_seidel ~x0 a b)))
    [ [| 0. |]; [| 0.; 0.; 0.; 0. |] ];
  let x, _ = Solver.solve_gauss_seidel ~x0:[| 1.; 1.; 1. |] a b in
  Alcotest.(check int) "a matching x0 is accepted" 3 (Array.length x)

(* [pi Q = 0] for a dense generator: the solver takes the transposed
   off-diagonal rates and the exit rates. *)
let steady_of_generator q =
  let n = Array.length q in
  let rt =
    Sparse.of_dense
      (Array.init n (fun j -> Array.init n (fun i -> if i = j then 0. else q.(i).(j))))
  in
  Solver.steady_state_gauss_seidel ~exit:(Array.init n (fun i -> -.q.(i).(i))) rt

let test_steady_state_two_state () =
  (* generator for rates 0->1: 2, 1->0: 3 *)
  let pi, _ = steady_of_generator [| [| -2.; 2. |]; [| 3.; -3. |] |] in
  check_close ~eps:1e-10 "pi0" 0.6 pi.(0);
  check_close ~eps:1e-10 "pi1" 0.4 pi.(1)

let test_steady_state_birth_death () =
  (* M/M/1/3 queue, lambda=1, mu=2: pi_i ~ (1/2)^i *)
  let pi, _ =
    steady_of_generator
      [|
        [| -1.; 1.; 0.; 0. |];
        [| 2.; -3.; 1.; 0. |];
        [| 0.; 2.; -3.; 1. |];
        [| 0.; 0.; 2.; -2. |];
      |]
  in
  let z = 1. +. 0.5 +. 0.25 +. 0.125 in
  List.iteri
    (fun i expected -> check_close ~eps:1e-10 (Printf.sprintf "pi%d" i) expected pi.(i))
    [ 1. /. z; 0.5 /. z; 0.25 /. z; 0.125 /. z ]

let test_steady_state_edge_cases () =
  let pi, c = steady_of_generator [| [| 0. |] |] in
  Alcotest.(check (array (float 0.))) "one state" [| 1. |] pi;
  Alcotest.(check int) "no sweep" 0 c.Solver.iterations;
  Alcotest.check_raises "zero exit rate"
    (Invalid_argument "Solver.steady_state_gauss_seidel: zero diagonal at row 1")
    (fun () -> ignore (steady_of_generator [| [| -1.; 1. |]; [| 0.; 0. |] |]));
  Alcotest.check_raises "exit rates of another size"
    (Invalid_argument "Solver.steady_state: exit rates dimension mismatch")
    (fun () ->
      ignore
        (Solver.steady_state_gauss_seidel ~exit:[| 1. |]
           (Sparse.of_dense [| [| 0.; 1. |]; [| 1.; 0. |] |])))

let test_power_iteration () =
  let p = Sparse.of_dense [| [| 0.5; 0.5 |]; [| 0.25; 0.75 |] |] in
  let pi, _ = Solver.power_iteration p [| 1.; 0. |] in
  (* stationary: pi = (1/3, 2/3) *)
  check_close ~eps:1e-9 "pi0" (1. /. 3.) pi.(0);
  check_close ~eps:1e-9 "pi1" (2. /. 3.) pi.(1)

let prop_gs_solves_random_dd_system =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 6 in
      let* off = list_size (return (n * n)) (float_range (-1.) 1.) in
      let* b = list_size (return n) (float_range (-5.) 5.) in
      return (n, off, b))
  in
  QCheck.Test.make ~count:100 ~name:"gauss-seidel solves diagonally dominant systems"
    (QCheck.make gen)
    (fun (n, off, b) ->
      let off = Array.of_list off in
      let d =
        Array.init n (fun i ->
            Array.init n (fun j -> if i = j then 0. else off.((i * n) + j)))
      in
      (* make strictly diagonally dominant *)
      Array.iteri
        (fun i row ->
          let s = Array.fold_left (fun acc x -> acc +. Float.abs x) 0. row in
          row.(i) <- s +. 1.)
        d;
      let a = Sparse.of_dense d in
      let b = Array.of_list b in
      let x, _ = Solver.solve_gauss_seidel a b in
      let r = Sparse.mul_vec a x in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-6) r b)

let multi_example () =
  let a =
    Sparse.of_dense [| [| 10.; 2.; 1. |]; [| 1.; 8.; -2. |]; [| 0.; 1.; 5. |] |]
  in
  let cols = [| [| 7.; -3.; 2. |]; [| 1.; 0.; 4. |]; [| -2.; 5.; 1. |] |] in
  (a, cols)

let test_gs_multi_matches_single () =
  let a, cols = multi_example () in
  let xm, convs = Solver.solve_gauss_seidel_multi a (Multivec.of_cols cols) in
  Alcotest.(check int) "one record per column" (Array.length cols)
    (Array.length convs);
  Array.iteri
    (fun c bc ->
      let x, _ = Solver.solve_gauss_seidel a bc in
      let xc = Multivec.col xm c in
      Array.iteri
        (fun i v ->
          check_close ~eps:1e-12 (Printf.sprintf "col %d row %d" c i) v xc.(i))
        x;
      Alcotest.(check bool)
        (Printf.sprintf "col %d converged" c)
        true convs.(c).Solver.converged)
    cols

let test_solver_criterion () =
  let a = Sparse.of_dense [| [| 4.; 1. |]; [| 1.; 5. |] |] in
  (* default run: the absolute test fires and says so *)
  let _, conv = Solver.solve_gauss_seidel a [| 9.; 16. |] in
  Alcotest.(check bool) "absolute criterion" true
    (conv.Solver.criterion = Some Solver.Absolute);
  (* scaled system with an unreachable absolute tolerance: only the
     relative test can accept, and the record names it *)
  let b = [| 9e12; 16e12 |] in
  let x, conv = Solver.solve_gauss_seidel ~tol:1e-300 ~rel_tol:1e-10 a b in
  Alcotest.(check bool) "converged" true conv.Solver.converged;
  Alcotest.(check bool) "relative criterion" true
    (conv.Solver.criterion = Some Solver.Relative);
  (* the relative test accepted at ~1e-10 * max|x|, so expect ~1e-10
     relative accuracy on values of order 1e12 *)
  check_close ~eps:1e3 "x0 scaled" (29e12 /. 19.) x.(0);
  check_close ~eps:1e3 "x1 scaled" (55e12 /. 19.) x.(1)

let test_gs_order () =
  (* x_i = b_i + 0.5 x_{i+1}: a DAG-like chain where every row depends on
     its successor. Natural order propagates one row per sweep; updating
     rows last-to-first (the SCC topological order of this system)
     converges in a sweep or two. *)
  let n = 50 in
  let triplets =
    List.concat
      (List.init n (fun i ->
           (i, i, 1.) :: (if i < n - 1 then [ (i, i + 1, -0.5) ] else [])))
  in
  let a = Sparse.of_triplets ~rows:n ~cols:n triplets in
  let b = Array.make n 1. in
  let x_nat, c_nat = Solver.solve_gauss_seidel a b in
  let order = Array.init n (fun i -> n - 1 - i) in
  let x_ord, c_ord = Solver.solve_gauss_seidel ~order a b in
  Array.iteri
    (fun i v -> check_close ~eps:1e-10 (Printf.sprintf "x%d" i) v x_ord.(i))
    x_nat;
  Alcotest.(check bool)
    (Printf.sprintf "ordered needs fewer sweeps (%d < %d)"
       c_ord.Solver.iterations c_nat.Solver.iterations)
    true
    (c_ord.Solver.iterations < c_nat.Solver.iterations);
  Alcotest.(check bool) "ordered converges in <= 2 sweeps" true
    (c_ord.Solver.iterations <= 2)

let test_gs_order_invalid () =
  let a = Sparse.of_dense [| [| 2.; 0. |]; [| 0.; 2. |] |] in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Solver.solve_gauss_seidel: order has length 1 for 2 rows")
    (fun () -> ignore (Solver.solve_gauss_seidel ~order:[| 0 |] a [| 1.; 1. |]));
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Solver.solve_gauss_seidel: order is not a permutation")
    (fun () ->
      ignore (Solver.solve_gauss_seidel ~order:[| 0; 0 |] a [| 1.; 1. |]))

(* ------------------------------------------------------------------ *)
(* Expm *)

let test_expm_diagonal () =
  let e = Numeric.Expm.expm [| [| 1.; 0. |]; [| 0.; -2. |] |] in
  check_close ~eps:1e-12 "e^1" (Float.exp 1.) e.(0).(0);
  check_close ~eps:1e-12 "e^-2" (Float.exp (-2.)) e.(1).(1);
  check_close "off diag" 0. e.(0).(1)

let test_expm_nilpotent () =
  (* strictly upper triangular: series terminates exactly *)
  let e = Numeric.Expm.expm [| [| 0.; 3. |]; [| 0.; 0. |] |] in
  check_close ~eps:1e-14 "identity part" 1. e.(0).(0);
  check_close ~eps:1e-14 "linear part" 3. e.(0).(1)

let test_expm_generator_rows_stochastic () =
  let q =
    Sparse.of_dense [| [| -2.; 2.; 0. |]; [| 1.; -3.; 2. |]; [| 0.; 4.; -4. |] |]
  in
  let e = Numeric.Expm.expm_generator q 0.7 in
  Array.iteri
    (fun i row ->
      let sum = Array.fold_left ( +. ) 0. row in
      check_close ~eps:1e-10 (Printf.sprintf "row %d stochastic" i) 1. sum;
      Array.iter (fun x -> Alcotest.(check bool) "non-negative" true (x >= -1e-12)) row)
    e

let test_expm_two_state_exact () =
  let a = 2. and b = 3. in
  let q = Sparse.of_dense [| [| -.a; a |]; [| b; -.b |] |] in
  let t = 0.9 in
  let e = Numeric.Expm.expm_generator q t in
  let exact = (b /. (a +. b)) +. (a /. (a +. b)) *. Float.exp (-.(a +. b) *. t) in
  check_close ~eps:1e-12 "p00" exact e.(0).(0)

let test_expm_not_square () =
  Alcotest.check_raises "not square" (Invalid_argument "Expm: matrix not square")
    (fun () -> ignore (Numeric.Expm.expm [| [| 1.; 2. |] |]))

(* ------------------------------------------------------------------ *)
(* Digraph *)

let graph n edges =
  Sparse.of_triplets ~rows:n ~cols:n (List.map (fun (u, v) -> (u, v, 1.)) edges)

let successors g u =
  let out = ref [] in
  Sparse.iter_row g u (fun v _ -> out := v :: !out);
  !out

let test_scc_simple_cycle () =
  let g = graph 3 [ (0, 1); (1, 2); (2, 0) ] in
  let comp, members = Digraph.sccs g in
  Alcotest.(check int) "one SCC" 1 (Array.length members);
  Alcotest.(check int) "all same" comp.(0) comp.(2)

let test_scc_chain () =
  let g = graph 4 [ (0, 1); (1, 2); (2, 3) ] in
  let comp, members = Digraph.sccs g in
  Alcotest.(check int) "four SCCs" 4 (Array.length members);
  (* reverse topological order: edges go from higher comp index to lower *)
  Alcotest.(check bool) "rev topo" true (comp.(0) > comp.(1) && comp.(1) > comp.(2))

let test_scc_two_components () =
  (* vertex 4 isolated *)
  let g = graph 5 [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2) ] in
  let sccs = Digraph.sccs g in
  Alcotest.(check int) "three SCCs" 3 (Array.length (snd sccs));
  let bsccs = Digraph.bottom_sccs g sccs in
  (* bottom SCCs: {2,3} and {4} *)
  Alcotest.(check int) "two BSCCs" 2 (Array.length bsccs)

let test_scc_deep_chain_no_overflow () =
  let n = 200_000 in
  let g = graph n (List.init (n - 1) (fun i -> (i, i + 1))) in
  let _, members = Digraph.sccs g in
  Alcotest.(check int) "all singletons" n (Array.length members)

(* 10^5-vertex paths, both directions, and the cycle closing one: the DFS
   is 10^5 frames deep, and the cycle's SCC holds every vertex *)
let test_scc_long_path () =
  let n = 100_000 in
  let forward = graph n (List.init (n - 1) (fun i -> (i, i + 1))) in
  let sccs = Digraph.sccs forward in
  let comp, members = sccs in
  Alcotest.(check int) "forward: singletons" n (Array.length members);
  Alcotest.(check bool) "forward: rev topo" true
    (Array.for_all Fun.id (Array.init (n - 1) (fun i -> comp.(i) > comp.(i + 1))));
  Alcotest.(check (array (array int))) "forward: the last vertex is bottom"
    [| [| n - 1 |] |]
    (Digraph.bottom_sccs forward sccs);
  Alcotest.(check bool) "forward: all reachable from 0" true
    (Array.for_all Fun.id (Digraph.reachable forward [ 0 ]));
  let backward = graph n (List.init (n - 1) (fun i -> (i + 1, i))) in
  let sccs = Digraph.sccs backward in
  Alcotest.(check int) "backward: singletons" n (Array.length (snd sccs));
  Alcotest.(check (array (array int))) "backward: vertex 0 is bottom"
    [| [| 0 |] |]
    (Digraph.bottom_sccs backward sccs);
  let cycle = graph n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1))) in
  let comp, members = Digraph.sccs cycle in
  Alcotest.(check int) "cycle: one SCC" 1 (Array.length members);
  Alcotest.(check (array int)) "cycle: members in discovery order"
    (Array.init n Fun.id) members.(0);
  Alcotest.(check bool) "cycle: comp all 0" true (Array.for_all (( = ) 0) comp)

let test_reachability () =
  let g = graph 4 [ (0, 1); (2, 3) ] in
  let r = Digraph.reachable g [ 0 ] in
  Alcotest.(check (list bool)) "reach from 0" [ true; true; false; false ]
    (Array.to_list r);
  let co = Digraph.reachable (Sparse.transpose g) [ 3 ] in
  Alcotest.(check (list bool)) "coreach 3" [ false; false; true; true ]
    (Array.to_list co);
  let g = graph 4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check (list bool)) "enter blocks 2" [ true; true; false; false ]
    (Array.to_list (Digraph.reachable ~enter:(fun v -> v <> 2) g [ 0 ]));
  Alcotest.(check (list bool)) "seeds ignore enter" [ false; false; true; true ]
    (Array.to_list (Digraph.reachable ~enter:(fun _ -> false) g [ 2; 3 ]))

let random_graph_gen =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let* edges = list_size (int_range 0 30) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    return (n, edges))

let prop_condensation_acyclic =
  QCheck.Test.make ~count:200 ~name:"SCC condensation has no forward edges"
    (QCheck.make random_graph_gen)
    (fun (n, edges) ->
      let comp, _ = Digraph.sccs (graph n edges) in
      List.for_all (fun (u, v) -> comp.(u) >= comp.(v)) edges)

let prop_bottom_sccs_have_no_exit =
  QCheck.Test.make ~count:200 ~name:"bottom SCCs have no leaving edges"
    (QCheck.make random_graph_gen)
    (fun (n, edges) ->
      let g = graph n edges in
      let bsccs = Digraph.bottom_sccs g (Digraph.sccs g) in
      Array.for_all
        (fun members ->
          Array.for_all
            (fun u -> List.for_all (fun v -> Array.mem v members) (successors g u))
            members)
        bsccs)

(* The list-adjacency Tarjan the CSR one replaced: adjacency built by
   prepending each row's entries (so successors come last column first),
   an explicit stack of (vertex, remaining successors) frames, members
   consed up while popping. *)
module List_tarjan = struct
  let adjacency g =
    let adj = Array.make (Sparse.rows g) [] in
    Sparse.iteri g (fun i j _ -> adj.(i) <- j :: adj.(i));
    adj

  let sccs adj =
    let n = Array.length adj in
    let index = Array.make n (-1) and lowlink = Array.make n 0 in
    let on_stack = Array.make n false and stack = Stack.create () in
    let next_index = ref 0 and comp = Array.make n (-1) in
    let members_rev = ref [] and comp_count = ref 0 in
    let visit root =
      let frames = Stack.create () in
      let push v =
        index.(v) <- !next_index;
        lowlink.(v) <- !next_index;
        incr next_index;
        Stack.push v stack;
        on_stack.(v) <- true;
        Stack.push (v, ref adj.(v)) frames
      in
      push root;
      while not (Stack.is_empty frames) do
        let v, rest = Stack.top frames in
        match !rest with
        | w :: tl ->
            rest := tl;
            if index.(w) = -1 then push w
            else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        | [] ->
            ignore (Stack.pop frames);
            if lowlink.(v) = index.(v) then begin
              let members = ref [] and continue = ref true in
              while !continue do
                let w = Stack.pop stack in
                on_stack.(w) <- false;
                comp.(w) <- !comp_count;
                members := w :: !members;
                if w = v then continue := false
              done;
              members_rev := !members :: !members_rev;
              incr comp_count
            end;
            (match Stack.top_opt frames with
            | Some (parent, _) -> lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
            | None -> ())
      done
    in
    for v = 0 to n - 1 do
      if index.(v) = -1 then visit v
    done;
    (comp, Array.of_list (List.rev !members_rev))

  let bottom_sccs adj (comp, members) =
    let has_exit = Array.make (Array.length members) false in
    Array.iteri
      (fun u vs ->
        List.iter (fun v -> if comp.(u) <> comp.(v) then has_exit.(comp.(u)) <- true) vs)
      adj;
    List.filteri (fun c _ -> not has_exit.(c)) (Array.to_list members)
end

let larger_graph_gen =
  QCheck.Gen.(
    let* n = int_range 1 60 in
    let* edges =
      list_size (int_range 0 150) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    return (n, edges))

let prop_csr_tarjan_matches_list =
  QCheck.Test.make ~count:300 ~name:"CSR Tarjan = list Tarjan (comp, members)"
    (QCheck.make larger_graph_gen)
    (fun (n, edges) ->
      let g = graph n edges in
      let adj = List_tarjan.adjacency g in
      let ((comp, members) as sccs) = Digraph.sccs g in
      let ((comp', members') as sccs') = List_tarjan.sccs adj in
      comp = comp'
      && Array.map Array.to_list members = members'
      && List.map Array.to_list (Array.to_list (Digraph.bottom_sccs g sccs))
         = List_tarjan.bottom_sccs adj sccs')

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_float_range () =
  let g = Rng.create 7L in
  for _ = 1 to 10_000 do
    let x = Rng.float g in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_exponential_mean () =
  let g = Rng.create 11L in
  let n = 100_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential g ~rate:2.
  done;
  check_close ~eps:0.01 "mean 1/rate" 0.5 (!acc /. float_of_int n)

let test_rng_choose_weighted () =
  let g = Rng.create 3L in
  let counts = [| 0; 0; 0 |] in
  let n = 30_000 in
  for _ = 1 to n do
    let k = Rng.choose_weighted g [| 1.; 2.; 1. |] in
    counts.(k) <- counts.(k) + 1
  done;
  check_close ~eps:0.02 "middle gets half" 0.5 (float_of_int counts.(1) /. float_of_int n);
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Rng.choose_weighted: zero total weight") (fun () ->
      ignore (Rng.choose_weighted g [| 0.; 0. |]))

let test_rng_int_bounds () =
  let g = Rng.create 5L in
  for _ = 1 to 10_000 do
    let k = Rng.int g 7 in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 7)
  done;
  (* n = 1 is the degenerate bound: always 0, no bits consumed to reject *)
  for _ = 1 to 100 do
    Alcotest.(check int) "n = 1" 0 (Rng.int g 1)
  done;
  (* a bound near the top of the 62-bit draw range still stays in range *)
  let big = (1 lsl 61) + 12345 in
  for _ = 1 to 10_000 do
    let k = Rng.int g big in
    Alcotest.(check bool) "big bound in range" true (k >= 0 && k < big)
  done;
  Alcotest.check_raises "non-positive bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int g 0))

let test_rng_int_uniform () =
  (* masked rejection: each residue of a non-power-of-two bound appears
     with equal probability (a chi-square-ish sanity bound on 6 cells) *)
  let g = Rng.create 17L in
  let n = 6 and draws = 60_000 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let k = Rng.int g n in
    counts.(k) <- counts.(k) + 1
  done;
  let expect = float_of_int draws /. float_of_int n in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "cell %d within 5%%" i)
        true
        (Float.abs (float_of_int c -. expect) < 0.05 *. expect))
    counts

(* ------------------------------------------------------------------ *)
(* Parallel *)

(* [Parallel.map] takes its pool path only when more than one domain is
   allowed; pin PAR_DOMAINS so these tests exercise the shared pool on
   any runner (the pool keeps the size it was created with) *)
let with_par_domains v f =
  let prev = Option.value (Sys.getenv_opt "PAR_DOMAINS") ~default:"" in
  Unix.putenv "PAR_DOMAINS" v;
  Fun.protect ~finally:(fun () -> Unix.putenv "PAR_DOMAINS" prev) f

let self () = (Domain.self () :> int)

let test_parallel_deterministic () =
  (* identical results for 1 vs. N domains, on work big enough that
     domains genuinely interleave *)
  let xs = List.init 40 (fun i -> i) in
  let f i =
    let acc = ref 0. in
    for k = 1 to 1000 do
      acc := !acc +. (float_of_int (i + k) ** 0.5)
    done;
    !acc
  in
  let seq = List.map f xs in
  Alcotest.(check (list (float 0.)))
    "shared pool = sequential" seq
    (with_par_domains "2" (fun () -> Parallel.map f xs));
  List.iter
    (fun d ->
      let pool = Parallel.Pool.create ~domains:d () in
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.shutdown pool)
        (fun () ->
          Alcotest.(check (list (float 0.)))
            (Printf.sprintf "%d domains = sequential" d)
            seq (Parallel.Pool.map pool f xs)))
    [ 1; 2; 3 ]

let test_parallel_order () =
  let xs = [ "c"; "a"; "d"; "b" ] in
  Alcotest.(check (list string))
    "input order preserved" [ "c!"; "a!"; "d!"; "b!" ]
    (with_par_domains "2" (fun () -> Parallel.map (fun s -> s ^ "!") xs))

let test_parallel_edges () =
  with_par_domains "2" (fun () ->
      Alcotest.(check (list int)) "empty list" [] (Parallel.map succ []);
      Alcotest.(check (list int)) "singleton" [ 8 ] (Parallel.map succ [ 7 ]);
      (* the applications run on pool workers, not the caller *)
      Alcotest.(check bool)
        "fans out" false
        (List.mem (self ()) (Parallel.map (fun _ -> self ()) [ 0; 1; 2; 3 ])));
  (* one domain: plain List.map on the calling domain *)
  with_par_domains "1" (fun () ->
      Alcotest.(check (list int))
        "PAR_DOMAINS=1 stays on the caller" [ self (); self (); self () ]
        (Parallel.map (fun _ -> self ()) [ 0; 1; 2 ]));
  let pool = Parallel.Pool.create ~domains:0 () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "domains < 1 clamped" 1 (Parallel.Pool.size pool);
      Alcotest.(check (list int))
        "clamped pool maps" [ 1; 2; 3 ]
        (Parallel.Pool.map pool succ [ 0; 1; 2 ]))

let test_parallel_exception () =
  Alcotest.check_raises "worker exception re-raised" (Failure "boom") (fun () ->
      with_par_domains "2" (fun () ->
          ignore
            (Parallel.map
               (fun i -> if i = 4 then failwith "boom" else i)
               (List.init 8 (fun i -> i)))))

let test_parallel_nested () =
  (* inner maps inside a worker must not fan out again: each runs on the
     domain of the item that called it, and the composed result must
     still be correct *)
  let result =
    with_par_domains "2" (fun () ->
        Parallel.map
          (fun i ->
            let d = self () in
            ( Parallel.map (fun j -> (10 * i) + j) [ 1; 2 ],
              Parallel.map (fun _ -> self () = d) [ 1; 2 ] ))
          [ 1; 2; 3 ])
  in
  Alcotest.(check (list (list int)))
    "nested results" [ [ 11; 12 ]; [ 21; 22 ]; [ 31; 32 ] ] (List.map fst result);
  Alcotest.(check bool)
    "inner maps stay on the worker" true
    (List.for_all (List.for_all Fun.id) (List.map snd result))

let test_pool_map () =
  let pool = Parallel.Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "size" 3 (Parallel.Pool.size pool);
      Alcotest.(check (list int)) "empty" [] (Parallel.Pool.map pool succ []);
      Alcotest.(check (list int))
        "singleton" [ 8 ]
        (Parallel.Pool.map pool succ [ 7 ]);
      let xs = List.init 20 (fun i -> i) in
      Alcotest.(check (list int))
        "order preserved"
        (List.map (fun i -> i * i) xs)
        (Parallel.Pool.map pool (fun i -> i * i) xs);
      (* the pool is reusable: same domains serve the next batch *)
      Alcotest.(check (list int))
        "second batch" (List.map succ xs)
        (Parallel.Pool.map pool succ xs))

let test_pool_exception () =
  let pool = Parallel.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      Alcotest.check_raises "worker exception re-raised" (Failure "boom")
        (fun () ->
          ignore
            (Parallel.Pool.map pool
               (fun i -> if i = 3 then failwith "boom" else i)
               (List.init 8 (fun i -> i))));
      (* a failed batch must not poison the pool *)
      Alcotest.(check (list int))
        "pool survives" [ 1; 2; 3 ]
        (Parallel.Pool.map pool succ [ 0; 1; 2 ]))

let test_pool_nested () =
  (* a map from inside a pool worker runs sequentially instead of
     deadlocking on the pool's own task queue *)
  let pool = Parallel.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      let result =
        Parallel.Pool.map pool
          (fun i -> Parallel.Pool.map pool (fun j -> (10 * i) + j) [ 1; 2 ])
          [ 1; 2; 3 ]
      in
      Alcotest.(check (list (list int)))
        "nested results" [ [ 11; 12 ]; [ 21; 22 ]; [ 31; 32 ] ] result)

let test_pool_shutdown () =
  let pool = Parallel.Pool.create ~domains:2 () in
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Parallel.Pool.map: pool is shut down") (fun () ->
      ignore (Parallel.Pool.map pool succ [ 1 ]))

let test_getenv_positive_int () =
  let get name v =
    Unix.putenv name v;
    Parallel.getenv_positive_int name
  in
  Alcotest.(check (option int)) "valid" (Some 7) (get "PAR_TEST_KNOB_A" "7");
  Alcotest.(check (option int))
    "whitespace tolerated" (Some 3)
    (get "PAR_TEST_KNOB_B" " 3 ");
  Alcotest.(check (option int)) "garbage" None (get "PAR_TEST_KNOB_C" "lots");
  Alcotest.(check (option int)) "zero" None (get "PAR_TEST_KNOB_D" "0");
  Alcotest.(check (option int)) "negative" None (get "PAR_TEST_KNOB_E" "-2");
  Alcotest.(check (option int)) "empty" None (get "PAR_TEST_KNOB_F" "");
  Alcotest.(check (option int))
    "unset" None
    (Parallel.getenv_positive_int "PAR_TEST_KNOB_NEVER_SET")

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Intern *)

let intern_key w k = Array.init w (fun f -> (k * 31) + f)

(* intern keys 0..count-1 and check ids, lookups and stored copies *)
let check_interned t ~width ~count =
  for k = 0 to count - 1 do
    Alcotest.(check int) "first-seen id" k (Intern.intern t (intern_key width k) 0)
  done;
  Alcotest.(check int) "count" count (Intern.count t);
  for k = 0 to count - 1 do
    Alcotest.(check int) "re-intern" k (Intern.intern t (intern_key width k) 0);
    Alcotest.(check int) "find" k (Intern.find t (intern_key width k) 0);
    Alcotest.(check (array int)) "stored key" (intern_key width k) (Intern.key t k)
  done;
  Alcotest.(check int) "count unchanged" count (Intern.count t)

let test_intern_collisions () =
  (* every key hashes alike: all go through the key comparison, and the
     probe chain runs past a slot-table resize *)
  let t = Intern.create ~hash:(fun _ _ -> 7) ~width:2 () in
  check_interned t ~width:2 ~count:1500;
  Alcotest.(check int) "absent despite equal hash" (-1)
    (Intern.find t [| -1; -1 |] 0)

let test_intern_growth () =
  (* from room for 1024 keys to 20 000 keys: five arena and slot resizes *)
  let t = Intern.create ~width:3 () in
  check_interned t ~width:3 ~count:20_000;
  (* a key read from the middle of a larger buffer *)
  let buf = Array.append [| 9; 9 |] (intern_key 3 1234) in
  Alcotest.(check int) "offset key" 1234 (Intern.find t buf 2)

let test_intern_absent () =
  let t = Intern.create ~width:2 () in
  Alcotest.(check int) "empty table" (-1) (Intern.find t [| 1; 2 |] 0);
  ignore (Intern.intern t [| 1; 2 |] 0);
  Alcotest.(check int) "other key" (-1) (Intern.find t [| 2; 1 |] 0);
  Alcotest.(check int) "find does not insert" 1 (Intern.count t)

let test_intern_widths () =
  List.iter
    (fun width ->
      let t = Intern.create ~width () in
      Alcotest.(check int) "width" width (Intern.width t);
      check_interned t ~width ~count:500;
      if width > 0 then
        Alcotest.(check int) "get" (intern_key width 42).(width - 1)
          (Intern.get t 42 (width - 1)))
    [ 1; 9; 17 ];
  (* width 0: the empty key is the only key *)
  let t = Intern.create ~width:0 () in
  Alcotest.(check int) "empty key" 0 (Intern.intern t [||] 0);
  Alcotest.(check int) "same empty key" 0 (Intern.intern t [| 5 |] 1);
  Alcotest.(check int) "one key" 1 (Intern.count t)

let test_intern_errors () =
  Alcotest.check_raises "negative width"
    (Invalid_argument "Intern.create: negative width") (fun () ->
      ignore (Intern.create ~width:(-1) ()));
  let t = Intern.create ~width:2 () in
  Alcotest.check_raises "short key"
    (Invalid_argument "Intern.intern: key out of bounds") (fun () ->
      ignore (Intern.intern t [| 1 |] 0));
  Alcotest.check_raises "key past the end"
    (Invalid_argument "Intern.find: key out of bounds") (fun () ->
      ignore (Intern.find t [| 1; 2 |] 1));
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Intern.get: id 0 out of 0") (fun () ->
      ignore (Intern.get t 0 0))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "numeric"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "normalize" `Quick test_vec_normalize;
          Alcotest.test_case "dimension mismatch" `Quick test_vec_mismatch;
        ] );
      ( "multivec",
        [
          Alcotest.test_case "basics" `Quick test_multivec_basics;
          Alcotest.test_case "columns roundtrip" `Quick
            test_multivec_cols_roundtrip;
          Alcotest.test_case "axpy from column" `Quick test_multivec_axpy;
          Alcotest.test_case "invalid input" `Quick test_multivec_errors;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "build and get" `Quick test_sparse_build_get;
          Alcotest.test_case "dense roundtrip" `Quick test_sparse_dense_roundtrip;
          Alcotest.test_case "matrix-vector products" `Quick test_sparse_mul_vec;
          Alcotest.test_case "transpose" `Quick test_sparse_transpose;
          Alcotest.test_case "row sums" `Quick test_sparse_row_sums;
          Alcotest.test_case "zero entries dropped" `Quick test_sparse_zero_dropped;
          Alcotest.test_case "bounds checks" `Quick test_sparse_bounds;
          Alcotest.test_case "blocked products" `Quick test_sparse_mul_multi;
          Alcotest.test_case "blocked shape mismatch" `Quick
            test_sparse_multi_shape_mismatch;
          Alcotest.test_case "row stream errors" `Quick test_rows_errors;
        ]
        @ qsuite
            [
              prop_builder_matches_dense; prop_spmv_matches_dense;
              prop_transpose_involution; prop_transpose_matches_builder;
              prop_rows_match_builder; prop_blocked_matches_columns;
            ] );
      ( "intern",
        [
          Alcotest.test_case "forced hash collisions" `Quick test_intern_collisions;
          Alcotest.test_case "growth across resizes" `Quick test_intern_growth;
          Alcotest.test_case "absent key" `Quick test_intern_absent;
          Alcotest.test_case "key widths" `Quick test_intern_widths;
          Alcotest.test_case "invalid input" `Quick test_intern_errors;
        ] );
      ( "fox-glynn",
        [
          Alcotest.test_case "matches direct pmf" `Quick test_fox_glynn_small;
          Alcotest.test_case "mass ~ 1 across magnitudes" `Quick test_fox_glynn_mass;
          Alcotest.test_case "lambda zero" `Quick test_fox_glynn_zero;
          Alcotest.test_case "window around mode" `Quick test_fox_glynn_window;
          Alcotest.test_case "cumulative tail" `Quick test_fox_glynn_tail;
          Alcotest.test_case "invalid input" `Quick test_fox_glynn_invalid;
        ] );
      ( "solver",
        [
          Alcotest.test_case "gauss-seidel 2x2" `Quick test_gauss_seidel_diag_dominant;
          Alcotest.test_case "zero diagonal rejected" `Quick test_gs_zero_diagonal;
          Alcotest.test_case "x0 dimension rejected" `Quick test_gs_x0_mismatch;
          Alcotest.test_case "steady state 2-state" `Quick test_steady_state_two_state;
          Alcotest.test_case "steady state birth-death" `Quick test_steady_state_birth_death;
          Alcotest.test_case "power iteration" `Quick test_power_iteration;
          Alcotest.test_case "multi-RHS gauss-seidel" `Quick
            test_gs_multi_matches_single;
          Alcotest.test_case "convergence criterion" `Quick test_solver_criterion;
          Alcotest.test_case "SCC-style update order" `Quick test_gs_order;
          Alcotest.test_case "invalid order rejected" `Quick
            test_gs_order_invalid;
          Alcotest.test_case "steady state edge cases" `Quick
            test_steady_state_edge_cases;
        ]
        @ qsuite [ prop_gs_solves_random_dd_system ] );
      ( "expm",
        [
          Alcotest.test_case "diagonal" `Quick test_expm_diagonal;
          Alcotest.test_case "nilpotent" `Quick test_expm_nilpotent;
          Alcotest.test_case "generator rows stochastic" `Quick
            test_expm_generator_rows_stochastic;
          Alcotest.test_case "two-state exact" `Quick test_expm_two_state_exact;
          Alcotest.test_case "not square" `Quick test_expm_not_square;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "single cycle" `Quick test_scc_simple_cycle;
          Alcotest.test_case "chain" `Quick test_scc_chain;
          Alcotest.test_case "two components + isolated" `Quick test_scc_two_components;
          Alcotest.test_case "deep chain (iterative tarjan)" `Slow
            test_scc_deep_chain_no_overflow;
          Alcotest.test_case "reachability" `Quick test_reachability;
          Alcotest.test_case "10^5-vertex paths" `Slow test_scc_long_path;
        ]
        @ qsuite
            [
              prop_condensation_acyclic; prop_bottom_sccs_have_no_exit;
              prop_csr_tarjan_matches_list;
            ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "weighted choice" `Quick test_rng_choose_weighted;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniform" `Quick test_rng_int_uniform;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "deterministic across domain counts" `Quick
            test_parallel_deterministic;
          Alcotest.test_case "order preserved" `Quick test_parallel_order;
          Alcotest.test_case "edge cases" `Quick test_parallel_edges;
          Alcotest.test_case "exceptions propagate" `Quick
            test_parallel_exception;
          Alcotest.test_case "nested map is sequential" `Quick
            test_parallel_nested;
          Alcotest.test_case "pool map" `Quick test_pool_map;
          Alcotest.test_case "pool exception" `Quick test_pool_exception;
          Alcotest.test_case "pool nested" `Quick test_pool_nested;
          Alcotest.test_case "pool shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "env knob parsing" `Quick
            test_getenv_positive_int;
        ] );
    ]
