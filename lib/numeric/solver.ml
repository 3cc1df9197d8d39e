type criterion = Absolute | Relative

type convergence = {
  iterations : int;
  residual : float;
  converged : bool;
  criterion : criterion option;
}

exception
  Did_not_converge of {
    solver : string;
    max_iter : int;
    info : convergence;
  }

let () =
  Printexc.register_printer (function
    | Did_not_converge { solver; max_iter; info } ->
        Some
          (Printf.sprintf
             "Solver.Did_not_converge: %s did not converge within %d \
              iterations (last residual %g)"
             solver max_iter info.residual)
    | _ -> None)

let diagonal a =
  let n = Sparse.rows a in
  let d = Vec.zeros n in
  for i = 0 to n - 1 do
    Sparse.iter_row a i (fun j x -> if j = i then d.(i) <- d.(i) +. x)
  done;
  d

let check_diagonal name d =
  Array.iteri
    (fun i x ->
      if x = 0. then
        invalid_arg (Printf.sprintf "Solver.%s: zero diagonal at row %d" name i))
    d

let check_order name n = function
  | None -> ()
  | Some o ->
      if Array.length o <> n then
        invalid_arg
          (Printf.sprintf "Solver.%s: order has length %d for %d rows" name
             (Array.length o) n);
      let seen = Array.make n false in
      Array.iter
        (fun i ->
          if i < 0 || i >= n || seen.(i) then
            invalid_arg
              (Printf.sprintf "Solver.%s: order is not a permutation" name);
          seen.(i) <- true)
        o

let max_abs v =
  let m = ref 0. in
  Array.iter (fun x -> let a = Float.abs x in if a > !m then m := a) v;
  !m

(* Which convergence test fired, if any. The absolute max-norm test is
   checked first; [rel_tol] additionally accepts a sweep whose change is
   small relative to the current iterate's magnitude, which is what keeps
   ill-conditioned large-N chains from iterating forever (or, with a
   loose absolute tolerance, from false-converging at the wrong scale —
   callers pair a tight [tol] with a [rel_tol]). *)
let fired ~tol ~rel_tol ~scale delta =
  if delta <= tol then Some Absolute
  else
    match rel_tol with
    | Some r when delta <= r *. scale -> Some Relative
    | _ -> None

(* Per-column iteration counts of every iterating solve: the regression
   oracle for SCC ordering (ordered sweeps should shift this histogram
   left). *)
let column_iterations =
  Obs.Metrics.histogram
    ~buckets:[| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 5000. |]
    "solver.column_iterations"

(* The one sweep loop behind every solver. [sweep deltas] performs one
   relaxation sweep over all [width] columns and writes each column's
   max-norm change into [deltas]; [scales ()] is the per-column max norm
   of the iterate after it, read only under [rel_tol]. All columns
   iterate together — one matrix pass per sweep regardless of width —
   and each keeps its own record: [done_at.(c)] is the sweep at which
   column [c] (most recently) entered the converged state.

   Every solve — converged or not — is reported the same way, per
   column: to the caller's [?obs] hook, to the metrics registry
   (per-solver counters, last-residual gauge, residual histogram, the
   recent-solve ring, [solver.column_iterations]) and onto the
   [solver.<name>] span. Only then does the first unconverged column
   raise, so iteration counts and final residuals are never discarded. *)
let drive ~solver ~tol ~rel_tol ~max_iter ?obs ~size ~width ~scales sweep =
  Obs.Trace.with_span ("solver." ^ solver) @@ fun span ->
  if Obs.Trace.recording span then begin
    Obs.Trace.add_attr span "states" (Obs.Int size);
    Obs.Trace.add_attr span "batch_width" (Obs.Int width)
  end;
  let deltas = Array.make width 0. in
  let done_at = Array.make width 0 in
  let crits = Array.make width None in
  let rec loop iter =
    sweep deltas;
    let scales = if rel_tol = None then None else Some (scales ()) in
    let all = ref true in
    for c = 0 to width - 1 do
      let scale = match scales with None -> 0. | Some s -> s.(c) in
      match fired ~tol ~rel_tol ~scale deltas.(c) with
      | Some crit ->
          if crits.(c) = None then begin
            crits.(c) <- Some crit;
            done_at.(c) <- iter
          end
      | None ->
          crits.(c) <- None;
          all := false
    done;
    if !all || iter >= max_iter then iter else loop (iter + 1)
  in
  let last = loop 1 in
  let records =
    Array.init width (fun c ->
        let converged = crits.(c) <> None in
        { iterations = (if converged then done_at.(c) else last);
          residual = deltas.(c);
          converged;
          criterion = crits.(c) })
  in
  Array.iter
    (fun c ->
      (match obs with Some f -> f c | None -> ());
      Obs.Metrics.record_solve ~solver ~size ~iterations:c.iterations
        ~residual:c.residual ~converged:c.converged;
      Obs.Metrics.observe column_iterations (float_of_int c.iterations))
    records;
  if Obs.Trace.recording span then begin
    Obs.Trace.add_attr span "iterations" (Obs.Int last);
    Obs.Trace.add_attr span "residual"
      (Obs.Float (Array.fold_left Float.max 0. deltas));
    Obs.Trace.add_attr span "converged"
      (Obs.Bool (Array.for_all (fun c -> c.converged) records))
  end;
  Array.iter
    (fun c ->
      if not c.converged then
        raise (Did_not_converge { solver; max_iter; info = c }))
    records;
  records

(* The scalar solvers run the loop at width 1 over their own [Vec]
   kernels. *)
let drive_vec ~solver ~tol ~rel_tol ~max_iter ?obs ~size x sweep =
  let records =
    drive ~solver ~tol ~rel_tol ~max_iter ?obs ~size ~width:1
      ~scales:(fun () -> [| max_abs x |])
      (fun deltas -> deltas.(0) <- sweep ())
  in
  (x, records.(0))

let solve_gauss_seidel ?(tol = 1e-12) ?rel_tol ?(max_iter = 100_000) ?obs
    ?order ?x0 a b =
  let n = Sparse.rows a in
  if Sparse.cols a <> n || Vec.dim b <> n then
    invalid_arg "Solver.solve_gauss_seidel: dimension mismatch";
  (match x0 with
  | Some v when Vec.dim v <> n ->
      invalid_arg "Solver.solve_gauss_seidel: x0 dimension mismatch"
  | _ -> ());
  let d = diagonal a in
  check_diagonal "solve_gauss_seidel" d;
  check_order "solve_gauss_seidel" n order;
  let x = match x0 with Some v -> Vec.copy v | None -> Vec.zeros n in
  drive_vec ~solver:"gauss_seidel" ~tol ~rel_tol ~max_iter ?obs ~size:n x
    (fun () -> Sparse.gauss_seidel_sweep ?order a ~diag:d ~b ~x)

let solve_gauss_seidel_multi ?(tol = 1e-12) ?rel_tol ?(max_iter = 100_000)
    ?obs ?order ?x0 a b =
  let name = "solve_gauss_seidel_multi" in
  let n = Sparse.rows a and k = Multivec.width b in
  if Sparse.cols a <> n || Multivec.dim b <> n then
    invalid_arg (Printf.sprintf "Solver.%s: dimension mismatch" name);
  if k = 0 then invalid_arg (Printf.sprintf "Solver.%s: empty block" name);
  (match x0 with
  | Some v when Multivec.dim v <> n || Multivec.width v <> k ->
      invalid_arg (Printf.sprintf "Solver.%s: x0 shape mismatch" name)
  | _ -> ());
  let d = diagonal a in
  check_diagonal name d;
  check_order name n order;
  let x =
    match x0 with
    | Some v -> Multivec.copy v
    | None -> Multivec.create ~dim:n ~width:k
  in
  let records =
    drive ~solver:"gauss_seidel_multi" ~tol ~rel_tol ~max_iter ?obs ~size:n
      ~width:k
      ~scales:(fun () -> Multivec.max_norms x)
      (fun deltas ->
        Sparse.gauss_seidel_sweep_multi ?order a ~diag:d ~b ~x ~deltas)
  in
  (x, records)

(* pi Q = 0 with Q = R - diag(exit), swept over the rows of R^T:
   pi(j) <- sum_{i<>j} pi(i) * R(i,j) / exit(j), then renormalize. *)
let steady_state_gauss_seidel ?(tol = 1e-12) ?rel_tol ?(max_iter = 100_000)
    ?obs ~exit rt =
  let n = Sparse.rows rt in
  if Sparse.cols rt <> n then invalid_arg "Solver.steady_state: not square";
  if Vec.dim exit <> n then
    invalid_arg "Solver.steady_state: exit rates dimension mismatch";
  if n = 0 then invalid_arg "Solver.steady_state: empty generator";
  (* A state with exit rate 0 in an irreducible chain means n = 1. *)
  if n = 1 then begin
    let c =
      { iterations = 0; residual = 0.; converged = true;
        criterion = Some Absolute }
    in
    (match obs with Some f -> f c | None -> ());
    Obs.Metrics.record_solve ~solver:"steady_gauss_seidel" ~size:1
      ~iterations:0 ~residual:0. ~converged:true;
    (Vec.create 1 1., c)
  end
  else begin
    check_diagonal "steady_state_gauss_seidel" exit;
    let pi = Vec.create n (1. /. float_of_int n) in
    drive_vec ~solver:"steady_gauss_seidel" ~tol ~rel_tol ~max_iter ?obs
      ~size:n pi (fun () ->
        let delta = Sparse.steady_sweep rt ~exit ~x:pi in
        Vec.normalize_l1 pi;
        delta)
  end

let power_iteration ?(tol = 1e-12) ?rel_tol ?(max_iter = 1_000_000) ?obs p pi0 =
  let n = Sparse.rows p in
  if Sparse.cols p <> n || Vec.dim pi0 <> n then
    invalid_arg "Solver.power_iteration: dimension mismatch";
  let pi = Vec.copy pi0 in
  let pi' = Vec.zeros n in
  drive_vec ~solver:"power_iteration" ~tol ~rel_tol ~max_iter ?obs ~size:n pi
    (fun () ->
      Sparse.vec_mul_into pi p pi';
      let delta = Vec.linf_distance pi pi' in
      Vec.blit ~src:pi' ~dst:pi;
      delta)
