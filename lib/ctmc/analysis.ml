module Vec = Numeric.Vec
module Sparse = Numeric.Sparse
module Multivec = Numeric.Multivec
module Fox_glynn = Numeric.Fox_glynn
module Digraph = Numeric.Digraph

(* Every event is counted once, in the process-wide Obs registry (a
   single flag check, one atomic increment when metrics are on), which
   aggregates all sessions, views and quotient sessions on every domain. *)
let m_embedded_builds = Obs.Metrics.counter "analysis.embedded_builds"

let m_weight_computes = Obs.Metrics.counter "analysis.weight_computes"

let m_weight_hits = Obs.Metrics.counter "analysis.weight_hits"

let m_steady_solves = Obs.Metrics.counter "analysis.steady_solves"

let m_steady_hits = Obs.Metrics.counter "analysis.steady_hits"

let m_fg_mass_deficit = Obs.Metrics.gauge "analysis.fg_mass_deficit"

let m_mixture_passes = Obs.Metrics.counter "analysis.mixture_passes"

let m_mixture_steps = Obs.Metrics.counter "analysis.mixture_steps"

let m_batch_columns = Obs.Metrics.counter "analysis.batch_columns"

let m_sweep_len = Obs.Metrics.histogram "analysis.sweep_length"

(* The artifacts of the rate operator alone: a session and every view of
   it ({!with_init}) hold this record by reference, so whichever derives
   an artifact first, all of them see it. *)
type operator = {
  mutable rate : float option;
  mutable emb : Sparse.t option;
  (* R^T: forward sweeps, the steady-state sweep and coreachability read
     its rows *)
  mutable rates_t : Sparse.t option;
  mutable scc : (int array * int array array) option;
  mutable bscc : int array array option;
  weight_tbl : (float * float, Fox_glynn.t) Hashtbl.t;
  (* the iterate pair of the last finished sweep, taken by the next one
     (atomically: views on other domains share this record) *)
  iterates : (Multivec.t * Multivec.t) option Atomic.t;
}

(* The steady-state vectors (BSCC weights) depend on the chain's initial
   distribution, so they stay per session. *)
type t = { chain : Chain.t; op : operator; steady_tbl : (float, Vec.t) Hashtbl.t }

let session chain op = { chain; op; steady_tbl = Hashtbl.create 4 }

let create chain =
  session chain
    {
      rate = None;
      emb = None;
      rates_t = None;
      scc = None;
      bscc = None;
      weight_tbl = Hashtbl.create 16;
      iterates = Atomic.make None;
    }

let with_init t init = session (Chain.with_init t.chain init) t.op

let chain t = t.chain

let wraps t m = t.chain == m

let for_chain analysis m =
  match analysis with Some a when wraps a m -> a | Some _ | None -> create m

let uniformization_rate t =
  match t.op.rate with
  | Some l -> l
  | None ->
      let l = Chain.uniformization_rate t.chain in
      t.op.rate <- Some l;
      l

let embedded t =
  match t.op.emb with
  | Some e -> e
  | None ->
      let e = Chain.embedded t.chain in
      Obs.Metrics.incr m_embedded_builds;
      t.op.emb <- Some e;
      e

let rates_transposed t =
  match t.op.rates_t with
  | Some r -> r
  | None ->
      let r =
        Obs.Trace.with_span "analysis.transpose_rates" @@ fun _ ->
        Sparse.transpose (Chain.rates t.chain)
      in
      t.op.rates_t <- Some r;
      r

let sccs t =
  match t.op.scc with
  | Some s -> s
  | None ->
      let s =
        Obs.Trace.with_span "analysis.sccs" @@ fun _ ->
        Digraph.sccs (Chain.rates t.chain)
      in
      t.op.scc <- Some s;
      s

let bottom_sccs t =
  match t.op.bscc with
  | Some b -> b
  | None ->
      let b = Digraph.bottom_sccs (Chain.rates t.chain) (sccs t) in
      t.op.bscc <- Some b;
      b

let is_irreducible t =
  let _, members = sccs t in
  Array.length members = 1

(* Gauss–Seidel update order for an (I - A) system whose row [i] solves
   original state [states.(i)]: rows sorted by the Tarjan component index
   of their state. Component indices are a reverse topological order of
   the condensation (an edge [u -> v] between distinct SCCs has
   [comp u > comp v]), so ascending order updates a state's successors
   before the state itself — on DAG-like subgraphs every dependency chain
   resolves within a single sweep. The full-chain order stays valid for
   any subset of states because restriction cannot add edges. *)
let scc_solve_order t states =
  let comp, _ = sccs t in
  let order = Array.init (Array.length states) (fun i -> i) in
  Array.stable_sort
    (fun a b -> compare comp.(states.(a)) comp.(states.(b)))
    order;
  order

type restricted = { states : int array; matrix : Sparse.t; order : int array }

(* The row numbering and the entry order (diagonal first, then the
   embedded row in order) fix the CSR layout, and with it every
   Gauss–Seidel iterate of unbounded until, mean time to absorption and
   the BSCC weights. An empty S touches neither the embedded matrix nor
   the SCCs. *)
let restricted_system t inside ~rhs ~leave =
  let n = Chain.states t.chain in
  let index = Array.make n (-1) in
  let count = ref 0 in
  for s = 0 to n - 1 do
    if inside s then begin
      index.(s) <- !count;
      incr count
    end
  done;
  let dim = !count in
  if dim = 0 then None
  else begin
    let emb = embedded t in
    let b = Sparse.Builder.create ~rows:dim ~cols:dim in
    let r = rhs dim in
    let states = Array.make dim 0 in
    for s = 0 to n - 1 do
      let i = index.(s) in
      if i >= 0 then begin
        states.(i) <- s;
        Sparse.Builder.add b i i 1.;
        Sparse.iter_row emb s (fun j p ->
            if index.(j) >= 0 then Sparse.Builder.add b i index.(j) (-.p)
            else leave r i j p)
      end
    done;
    Some
      ( { states; matrix = Sparse.Builder.to_csr b;
          order = scc_solve_order t states },
        r )
  end

let default_epsilon = 1e-12

(* The weight and steady-state caches are keyed by floats under generic
   equality, where [nan <> nan]: a NaN key could never hit and would
   silently recompute on every call — the exact pathology a long-lived
   session is meant to amortize. Reject non-finite (and non-positive
   tolerance) inputs at the entry points instead. *)
let validate_finite ~what x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "%s must be finite (got %h)" what x)

let validate_positive ~what x =
  if not (Float.is_finite x && x > 0.) then
    invalid_arg (Printf.sprintf "%s must be finite and positive (got %h)" what x)

(* Keyed by the product [lambda * time], so a masked pass (whose rate
   is that of its absorbing rows, see {!absorbing}) shares the table with
   unmasked ones. *)
let weights_at ?(epsilon = default_epsilon) t ~lambda time =
  validate_positive ~what:"Analysis.weights: epsilon" epsilon;
  validate_finite ~what:"Analysis.weights: time" time;
  validate_finite ~what:"Analysis.weights: uniformization rate * time"
    (lambda *. time);
  let key = (lambda *. time, epsilon) in
  match Hashtbl.find_opt t.op.weight_tbl key with
  | Some w ->
      Obs.Metrics.incr m_weight_hits;
      w
  | None ->
      let w = Fox_glynn.compute ~epsilon (lambda *. time) in
      Obs.Metrics.incr m_weight_computes;
      Hashtbl.replace t.op.weight_tbl key w;
      w

let weights ?epsilon t time =
  weights_at ?epsilon t ~lambda:(uniformization_rate t) time

let cached_steady t ~tol compute =
  validate_positive ~what:"Analysis.cached_steady: tol" tol;
  match Hashtbl.find_opt t.steady_tbl tol with
  | Some pi ->
      Obs.Metrics.incr m_steady_hits;
      Vec.copy pi
  | None ->
      let pi = compute () in
      Obs.Metrics.incr m_steady_solves;
      Hashtbl.replace t.steady_tbl tol (Vec.copy pi);
      pi

(* FNV-1a, 64 bit: cheap streaming hash *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  for k = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s k))))
        0x100000001b3L
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Absorbing-row masks                                                *)

type absorbing = { of_chain : Chain.t; rows : Bytes.t; lambda : float }

let absorbing t pred =
  let rows =
    Bytes.init (Chain.states t.chain) (fun s -> if pred s then '\001' else '\000')
  in
  let lambda =
    Chain.uniformization_rate
      ~absorbing:(fun s -> Bytes.unsafe_get rows s <> '\000')
      t.chain
  in
  { of_chain = t.chain; rows; lambda }

let absorbs a s = Bytes.get a.rows s <> '\000'

type dir = Forward | Backward

type coeff = Pmf | Tail_over_lambda

(* The one uniformization kernel behind transient distributions, backward
   value vectors and accumulated rewards:

     sum_{k=0}^{right} c_k v_k   with   v_{k+1} = step(v_k),

   where step is [v P] (Forward) or [P v] (Backward) over the uniformized
   matrix P = I + (R - diag exit)/lambda, and the coefficients are either
   the truncated Poisson probabilities (Pmf: the transient mixture) or the
   scaled upper tails
   [P(N_{lambda t} >= k+1) / lambda] (Tail_over_lambda: the accumulated-
   reward integral). Steps below the Fox-Glynn window's left edge can have
   zero coefficients but must still be applied.

   The multi-time-point variant shares the vector iteration across all
   requested times: one sweep up to the Fox-Glynn right edge of the latest
   time, with one accumulator and one coefficient stream per distinct
   time. A K-point curve therefore costs one pass of SpMVs (the window of
   t_K) instead of K windowed segments. *)

(* The batched variant generalizes this further: K independent coefficient
   streams — each with its own start vector, coefficient kind and time
   grid — ride one {e blocked} sweep. The iterates live in a
   {!Multivec.t} and each step is a single blocked gather
   ({!Sparse.mul_multi_into} with [~uniformize]) that applies P on the
   fly from the rates: over R for backward sweeps and over the
   session-cached R^T for forward ones, so the operator is decoded once
   per step no matter how many streams ride it, and no session ever holds
   a scaled copy of its rates. Streams
   whose start vectors are equal bit for bit share one iterate column
   (their iterates agree at every step), so the block is as wide as the
   number of distinct starts: the instantaneous and accumulated cost
   curves, a Pmf and a Tail stream from the same initial distribution,
   sweep a single column.

   The sweep has two faces that differ only in how a step consumes the
   iterate block. The vector face keeps one full-length accumulator per
   (stream, distinct time) and adds [c_k v_k] into it; in a block wider
   than one column, each column a step needs is first copied out of the
   interleaved layout once, and the axpys read the contiguous copy. The
   values face serves callers that only want [<sum_k c_k v_k, r>] for a
   reward or indicator vector [r]: it records the scalar [y_k = <v_k, r>]
   once per (column, reward) per step and adds [c_k y_k] per time point,
   so a step costs one dot per distinct (column, reward) instead of one
   full-length axpy per time point. A step mask — the OR of the masks of
   the streams sharing the dot — limits the dots to steps where some of
   their coefficients are non-zero: a Pmf stream whose narrow window sits
   at the end of a long sweep (stretched by another stream, or by the
   window's own left edge) pays nothing before its window opens.

   A pass may also carry an absorbing-row mask ({!absorbing}): it then
   sweeps the chain in which the masked states are absorbing, at that
   chain's rate, without building it. Backward, the masked rows are not
   gathered and keep their start values (their P row is the identity).
   Forward, the iterate [u_k] carries only the mass outside the mask
   (masked rows are skipped and stay zero); the values face adds what the
   absorbed mass is worth to [r]: the masked part of [<v_0, r>] plus
   [<u_m, g> / lambda] per step [m < k], [g(i) = sum_{j masked} R(i,j)
   r(j)]. The vector face would have to gather every row for that, so it
   takes no mask forward. *)

type batch = { start : Vec.t; coeff : coeff; times : float list }

(* one distinct positive time of one stream *)
type point = {
  stream : int;  (** the stream this point belongs to *)
  col : int;  (** which column of the iterate block feeds this point *)
  time : float;
  coeff_at : int -> float;
  first : int;  (** no non-zero coefficients before this step index *)
  last : int;  (** no non-zero coefficients beyond this step index *)
}

let coefficients ~lambda ~coeff w =
  let { Fox_glynn.left; right; weights = wts; _ } = w in
  match coeff with
  | Pmf ->
      let f k = if k >= left && k <= right then wts.(k - left) else 0. in
      (f, left, right)
  | Tail_over_lambda ->
      let tail = Fox_glynn.cumulative_tail w in
      let total = Fox_glynn.total_mass w in
      let f k =
        (* P(N >= k + 1) within the truncated window, over lambda *)
        let k1 = k + 1 in
        (if k1 <= left then total
         else if k1 > right then 0.
         else tail.(k1 - left))
        /. lambda
      in
      (f, 0, right - 1)

let check_times who times =
  List.iter
    (fun tm ->
      (* [tm < 0.] alone would let NaN through: it fails every comparison *)
      if not (Float.is_finite tm && tm >= 0.) then
        invalid_arg
          (Printf.sprintf "%s: times must be finite and non-negative (got %g)"
             who tm))
    times

(* Bit-for-bit vector equality: unlike [=], it keeps -0/+0 apart and
   never merges NaNs by value. *)
let same_bits (a : Vec.t) (b : Vec.t) =
  a == b
  || Vec.dim a = Vec.dim b
     &&
     let rec from i =
       i = Vec.dim a
       || Int64.equal (Int64.bits_of_float a.(i)) (Int64.bits_of_float b.(i))
          && from (i + 1)
     in
     from 0

(* [classes n same] numbers the classes of the equivalence [same] on
   [0 .. n - 1] in order of first appearance: [class_of.(s)] is the class
   of [s] and [first.(c)] the first member of class [c]. *)
let classes n same =
  let class_of = Array.make n 0 and firsts = ref [] in
  for s = 0 to n - 1 do
    match List.find_opt (fun r -> same r s) !firsts with
    | Some r -> class_of.(s) <- class_of.(r)
    | None ->
        class_of.(s) <- List.length !firsts;
        firsts := s :: !firsts
  done;
  (class_of, Array.of_list (List.rev !firsts))

(* The one sweep loop behind both faces. It validates the streams, maps
   them onto iterate columns, builds the Fox–Glynn coefficient streams,
   keeps the counters and spans, and runs the blocked gathers, masked by
   [absorbing] when given. [prepare ~cols points ~steps] is called once
   the windows are known (and only if some stream has a positive time),
   with [cols.(s)] the column of stream [s]; it sets up the face's
   accumulators and returns the action applied to the iterate block
   [v_k] at every step [k = 0 .. steps - 1]. *)
let sweep ?epsilon ?absorbing t ~dir ~who barr ~prepare =
  let n = Chain.states t.chain in
  Array.iter
    (fun b ->
      if Vec.dim b.start <> n then invalid_arg (who ^ ": dimension mismatch");
      check_times who b.times)
    barr;
  Option.iter
    (fun a ->
      if a.of_chain != t.chain then
        invalid_arg (who ^ ": absorbing mask of another chain"))
    absorbing;
  let streams = Array.length barr in
  let distinct =
    Array.map
      (fun b -> List.sort_uniq compare (List.filter (fun tm -> tm > 0.) b.times))
      barr
  in
  if Array.exists (fun l -> l <> []) distinct then begin
    Obs.Trace.with_span "analysis.mixture" @@ fun mix_span ->
    let cols, firsts =
      classes streams (fun r s -> same_bits barr.(r).start barr.(s).start)
    in
    let width = Array.length firsts in
    let lambda =
      match absorbing with Some a -> a.lambda | None -> uniformization_rate t
    in
    let op =
      match dir with
      | Forward -> rates_transposed t
      | Backward -> Chain.rates t.chain
    in
    let uniformize = Some (Chain.exit_rates t.chain, lambda) in
    let skip = Option.map (fun a -> a.rows) absorbing in
    (* phase 1: Fox-Glynn windows + per-(stream, time) coefficient
       streams *)
    (* worst truncation error across the Fox–Glynn windows of this
       pass: 1 - total weight mass inside the [left, right] window *)
    let fg_deficit = ref 0. in
    let points =
      Obs.Trace.with_span "mixture.weights" @@ fun _ ->
      Array.of_list
        (List.concat
           (List.init streams (fun stream ->
                List.map
                  (fun time ->
                    let w = weights_at ?epsilon t ~lambda time in
                    fg_deficit :=
                      Float.max !fg_deficit (1. -. Fox_glynn.total_mass w);
                    let coeff_at, first, last =
                      coefficients ~lambda ~coeff:barr.(stream).coeff w
                    in
                    { stream; col = cols.(stream); time; coeff_at; first; last })
                  distinct.(stream))))
    in
    let right_max = Array.fold_left (fun m pt -> max m pt.last) 0 points in
    let consume = prepare ~cols points ~steps:(right_max + 1) in
    let total_times =
      Array.fold_left (fun s b -> s + List.length b.times) 0 barr
    in
    Obs.Metrics.incr m_mixture_passes;
    Obs.Metrics.add m_batch_columns streams;
    Obs.Metrics.observe m_sweep_len (float_of_int (right_max + 1));
    Obs.Metrics.set_gauge m_fg_mass_deficit !fg_deficit;
    if Obs.Trace.recording mix_span then begin
      Obs.Trace.add_attr mix_span "states" (Obs.Int n);
      (* stored entries of the operator every step gathers over *)
      Obs.Trace.add_attr mix_span "nnz" (Obs.Int (Sparse.nnz op));
      Obs.Trace.add_attr mix_span "batch_width" (Obs.Int width);
      Obs.Trace.add_attr mix_span "streams" (Obs.Int streams);
      Obs.Trace.add_attr mix_span "times" (Obs.Int total_times);
      Obs.Trace.add_attr mix_span "distinct" (Obs.Int (Array.length points));
      Obs.Trace.add_attr mix_span "sweep_length" (Obs.Int (right_max + 1));
      Obs.Trace.add_attr mix_span "spmvs" (Obs.Int right_max);
      Obs.Trace.add_attr mix_span "fg_mass_deficit" (Obs.Float !fg_deficit);
      Obs.Trace.add_attr mix_span "epsilon"
        (Obs.Float (Option.value epsilon ~default:default_epsilon))
    end;
    (* phase 2: the shared blocked sweep (right_max blocked gathers, each
       one operator pass for all [width] columns) *)
    ( Obs.Trace.with_span "mixture.sweep" @@ fun sweep_span ->
      if Obs.Trace.recording sweep_span then begin
        Obs.Trace.add_attr sweep_span "batch_width" (Obs.Int width);
        Obs.Trace.add_attr sweep_span "streams" (Obs.Int streams)
      end;
      (* The two n x width iterate blocks are the pass's only large
         allocation; they are reused from the operator's last pass of the
         same width, so repeated curves on a large chain leave no
         garbage. *)
      let v, next =
        match Atomic.exchange t.op.iterates None with
        | Some (v, next) when Multivec.width v = width -> (ref v, ref next)
        | Some _ | None ->
            (ref (Multivec.create ~dim:n ~width), ref (Multivec.create ~dim:n ~width))
      in
      Array.iteri (fun c s -> Multivec.set_col !v c barr.(s).start) firsts;
      (match (absorbing, dir) with
      | None, _ -> (* the gather writes every entry of [next] *) ()
      | Some _, Backward ->
          (* skipped rows keep their start values in both buffers *)
          Multivec.blit !v !next
      | Some a, Forward ->
          (* skipped rows hold no mass in either buffer *)
          for i = 0 to n - 1 do
            if absorbs a i then
              for c = 0 to width - 1 do
                Multivec.set !v i c 0.
              done
          done;
          Multivec.fill !next 0.);
      for k = 0 to right_max do
        consume k !v;
        if k < right_max then begin
          Sparse.mul_multi_into ?uniformize ?skip op !v !next;
          let tmp = !v in
          v := !next;
          next := tmp
        end
      done;
      Atomic.set t.op.iterates (Some (!v, !next)) );
    Obs.Metrics.add m_mixture_steps right_max
  end

(* a point's coefficient at step [k]: zero outside its window *)
let coeff_of pt k = if k >= pt.first && k <= pt.last then pt.coeff_at k else 0.

let poisson_mixture_batch ?epsilon ?absorbing t ~dir batches =
  let who = "Analysis.poisson_mixture_batch" in
  if dir = Forward && absorbing <> None then
    invalid_arg (who ^ ": forward sweeps take an absorbing mask only as values");
  let n = Chain.states t.chain in
  let barr = Array.of_list batches in
  let by_time = Array.map (fun _ -> Hashtbl.create 8) barr in
  sweep ?epsilon ?absorbing t ~dir ~who barr
    ~prepare:(fun ~cols points ~steps:_ ->
      let accs =
        Array.map
          (fun pt ->
            let acc = Vec.zeros n in
            Hashtbl.replace by_time.(pt.stream) pt.time acc;
            acc)
          points
      in
      (* the points each column feeds *)
      let width = Array.fold_left (fun w c -> max w (c + 1)) 0 cols in
      let feeds = Array.make width [] in
      for i = Array.length points - 1 downto 0 do
        let c = points.(i).col in
        feeds.(c) <- i :: feeds.(c)
      done;
      let scratch = Vec.zeros (if width > 1 then n else 0) in
      fun k v ->
        Array.iteri
          (fun col fed ->
            let copied = ref false in
            List.iter
              (fun i ->
                let c = coeff_of points.(i) k in
                if c <> 0. then
                  if width = 1 then Multivec.axpy_from_col c v col accs.(i)
                  else begin
                    if not !copied then begin
                      Multivec.col_into v col scratch;
                      copied := true
                    end;
                    Vec.axpy c scratch accs.(i)
                  end)
              fed)
          feeds);
  (* align 1:1 with each stream's time list; duplicates get private
     copies so every returned vector can be mutated independently *)
  List.mapi
    (fun stream b ->
      let at_zero () =
        match b.coeff with
        | Pmf -> Vec.copy b.start
        | Tail_over_lambda -> Vec.zeros n
      in
      let handed_out = Hashtbl.create 8 in
      List.map
        (fun tm ->
          if tm = 0. then at_zero ()
          else if Hashtbl.mem handed_out tm then
            Vec.copy (Hashtbl.find by_time.(stream) tm)
          else begin
            Hashtbl.add handed_out tm ();
            Hashtbl.find by_time.(stream) tm
          end)
        b.times)
    batches

(* A forward masked dot (kernel notes above): [held] is the masked part of
   [<v_k, r>], [g] its inflow, and [direct] whether [r] is non-zero off
   the mask at all (a psi indicator is not: no dot with the iterate). *)
type inflow = { g : Vec.t; direct : bool; mutable held : float }

let inflow m a r start =
  let n = Chain.states m in
  let g = Vec.zeros n and direct = ref false and held = ref 0. in
  for i = 0 to n - 1 do
    if absorbs a i then held := !held +. (start.(i) *. r.(i))
    else begin
      if r.(i) <> 0. then direct := true;
      Sparse.iter_row (Chain.rates m) i (fun j x ->
          if absorbs a j then g.(i) <- g.(i) +. (x *. r.(j)))
    end
  done;
  { g; direct = !direct; held = !held }

let poisson_mixture_values ?epsilon ?absorbing t ~dir pairs =
  let who = "Analysis.poisson_mixture_values" in
  let n = Chain.states t.chain in
  List.iter
    (fun (_, r) ->
      if Vec.dim r <> n then invalid_arg (who ^ ": reward dimension mismatch"))
    pairs;
  let barr = Array.of_list (List.map fst pairs) in
  let rewards = Array.of_list (List.map snd pairs) in
  (* one unboxed one-cell accumulator per (stream, distinct time) *)
  let by_time = Array.map (fun _ -> Hashtbl.create 8) barr in
  sweep ?epsilon ?absorbing t ~dir ~who barr ~prepare:(fun ~cols points ~steps ->
      (* streams on one column with the same reward share one dot *)
      let dot_of, dots =
        classes (Array.length barr) (fun r s ->
            cols.(r) = cols.(s) && same_bits rewards.(r) rewards.(s))
      in
      (* per-dot step mask: '1' where some coefficient is non-zero *)
      let mask = Array.map (fun _ -> Bytes.make steps '0') dots in
      let sums =
        Array.map
          (fun pt ->
            let m = mask.(dot_of.(pt.stream)) in
            for k = pt.first to pt.last do
              if pt.coeff_at k <> 0. then Bytes.set m k '1'
            done;
            let sum = [| 0. |] in
            Hashtbl.replace by_time.(pt.stream) pt.time sum;
            sum)
          points
      in
      let y = Array.make (Array.length dots) 0. in
      let accumulate k =
        Array.iteri
          (fun i pt ->
            let c = coeff_of pt k in
            if c <> 0. then
              sums.(i).(0) <- sums.(i).(0) +. (c *. y.(dot_of.(pt.stream))))
          points
      in
      match (absorbing, dir) with
      | Some a, Forward ->
          let flows =
            Array.map (fun s -> inflow t.chain a rewards.(s) barr.(s).start) dots
          in
          fun k v ->
            Array.iteri
              (fun d s ->
                let f = flows.(d) in
                if Bytes.get mask.(d) k = '1' then
                  y.(d) <-
                    (if f.direct then Multivec.dot_col v cols.(s) rewards.(s)
                     else 0.)
                    +. f.held;
                if k < steps - 1 then
                  f.held <- f.held +. (Multivec.dot_col v cols.(s) f.g /. a.lambda))
              dots;
            accumulate k
      | _ ->
          fun k v ->
            Array.iteri
              (fun d s ->
                if Bytes.get mask.(d) k = '1' then
                  y.(d) <- Multivec.dot_col v cols.(s) rewards.(s))
              dots;
            accumulate k);
  List.mapi
    (fun stream (b, r) ->
      List.map
        (fun tm ->
          if tm > 0. then (Hashtbl.find by_time.(stream) tm).(0)
          else
            match b.coeff with
            | Pmf -> Vec.dot b.start r
            | Tail_over_lambda -> 0.)
        b.times)
    pairs
