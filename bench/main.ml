(* Benchmark harness: regenerates every table and figure of the paper and
   times the computations behind them.

   Three parts, in order: the artifacts (the data of Tables 1-2 and
   Figures 3-11, printed with wall-clock generation times), the kernel
   counters (the mixture and steady-state work of one Line-2 session's calls,
   read as deltas of the Obs.Metrics registry's analysis.* counters, and
   the blocked-sweep contrast CI gates on), and the ablation studies.

   The times printed here are one sample each and gate nothing. The work
   behind each artifact (builds, states, sweeps, solver iterations) is
   pinned exactly by test/work_counts.expected, which `dune runtest`
   checks and `dune promote` updates; wall time is compared in
   alternating parent/change pairs by perfbench/run.py.

   Environment knobs (numeric ones must be positive integers; anything
   else warns once on stderr and falls back to the default):
   - BENCH_POINTS: curve samples per artifact series (default 15).
   - BATCH: stream count of the blocked-sweep contrast (default 5).
   - BENCH_SKIP_ARTIFACTS=1, BENCH_SKIP_ABLATIONS=1: skip that part.
   - PAR_DOMAINS: domains each artifact's per-config series fan out over
     (default Domain.recommended_domain_count; 1 = sequential).
   - BENCH_JSON=<path>: write the per-artifact timings (with curve point
     counts and state-space sizes), the kernel counters, the ablation
     timings and the Obs metrics snapshot as one JSON object, atomically
     (temp file + rename).
   - OBS_TRACE=<path>: Chrome trace-event JSON of the whole run; the
     self-time ledger (self s, share, total s, count per span name) is
     printed to stderr after the run, stdout is unchanged.
   - OBS_METRICS=1|<path>: enable the metrics registry; print the
     snapshot to stderr at exit, or write it to <path> as JSON. *)

let bench_points =
  Option.value (Numeric.Parallel.getenv_positive_int "BENCH_POINTS") ~default:15

let skip name = Sys.getenv_opt name = Some "1"

(* ------------------------------------------------------------------ *)
(* Artifacts and ablations: print and time them *)

type artifact_timing = {
  art_id : string;
  art_seconds : float;
  art_points : int;  (* total curve points across the artifact's series *)
  art_states : (string * int) list;  (* per-chain state-space sizes *)
}

let print_artifacts () =
  Format.printf "==========================================================@.";
  Format.printf " Reproduction of the paper's tables and figures@.";
  Format.printf " (curves sampled at %d points; BENCH_POINTS overrides;@."
    bench_points;
  Format.printf "  series fan out over %d domains, PAR_DOMAINS overrides)@."
    (Numeric.Parallel.default_domains ());
  Format.printf "==========================================================@.@.";
  (* artifacts in paper order, each fanning out its own configs: two
     artifacts run side by side would share chains (fig4 and fig5 both
     sweep Line 1 DED) *)
  List.map
    (fun id ->
      let gen =
        match Watertreatment.Experiments.by_id id with
        | Some gen -> gen
        | None -> assert false
      in
      let t0 = Unix.gettimeofday () in
      let artifact = gen ~points:bench_points () in
      let dt = Unix.gettimeofday () -. t0 in
      Watertreatment.Experiments.render_artifact Format.std_formatter artifact;
      Format.printf "  [%s generated in %.2f s]@.@." id dt;
      {
        art_id = id;
        art_seconds = dt;
        art_points = Watertreatment.Experiments.artifact_points artifact;
        art_states = Watertreatment.Experiments.state_spaces id;
      })
    Watertreatment.Experiments.ids

let print_ablations () =
  Format.printf "==========================================================@.";
  Format.printf " Ablation studies (beyond the paper)@.";
  Format.printf "==========================================================@.@.";
  List.map
    (fun id ->
      let gen =
        match Watertreatment.Ablations.by_id id with
        | Some gen -> gen
        | None -> assert false
      in
      let t0 = Unix.gettimeofday () in
      let artifact = gen () in
      let dt = Unix.gettimeofday () -. t0 in
      Watertreatment.Experiments.render_artifact Format.std_formatter artifact;
      Format.printf "  [%s generated in %.2f s]@.@." id dt;
      (id, dt))
    Watertreatment.Ablations.ids

(* ------------------------------------------------------------------ *)
(* Kernel counters *)

let line2 = Watertreatment.Facility.Line2

let frf1 = Watertreatment.Facility.frf 1

let model_line2_frf1 = Watertreatment.Facility.line_model line2 frf1

let grid n upto = List.init n (fun i -> upto *. float_of_int i /. float_of_int (n - 1))

(* [f ()] and a reader of how far each [analysis.<name>] counter of the
   Obs registry grew during the call, with metrics on for the call. When
   they were off, the registry is zeroed again afterwards, so the JSON
   [metrics] block stays empty without OBS_METRICS. *)
let counting f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let counters () = (Obs.Metrics.snapshot ()).Obs.Metrics.counters in
  let before = counters () in
  let x = f () in
  let after = counters () in
  if not was then begin
    Obs.Metrics.set_enabled false;
    Obs.Metrics.reset ()
  end;
  let get l name =
    Option.value ~default:0 (List.assoc_opt ("analysis." ^ name) l)
  in
  (x, fun name -> get after name - get before name)

(* Kernel observability: run one 10-point accumulated-cost curve on a
   fresh Line-2 session and report the mixture counters (one pass, the
   sweep's SpMV count), then two availabilities on the symmetric build of
   the same FRF-1 model and report the steady-state cache counters — dumped
   into the JSON and printed. *)
let kernel_counters () =
  (* the JSON kernel block reads mixture_passes, mixture_steps and
     batch_columns all from this one call *)
  let m, s =
    counting (fun () ->
        let m = Core.Measures.analyze model_line2_frf1 in
        ignore (Core.Measures.accumulated_cost_curve m ~times:(grid 10 50.));
        m)
  in
  let a = Core.Measures.analysis m in
  Format.printf
    "kernel: 10-pt accumulated curve -> fg %d computed/%d hits, mixture %d \
     passes/%d steps, %d columns@."
    (s "weight_computes") (s "weight_hits") (s "mixture_passes")
    (s "mixture_steps") (s "batch_columns");
  (* Blocked-kernel contrast (the BATCH knob, default 5): K fig7-style
     Tail_over_lambda streams (accumulated cost over a 10-point grid to
     t=50), each from its own point-mass start so that no two share an
     iterate column, evaluated as K separate single-stream sweeps, as one
     width-K blocked sweep on the same warmed session, and as the same
     blocked sweep through the reward-projected face. CI gates on
     projected_seconds < batched_seconds < unbatched_seconds. *)
  let batch_width =
    Option.value (Numeric.Parallel.getenv_positive_int "BATCH") ~default:5
  in
  let chain = (Core.Measures.built m).Core.Semantics.chain in
  let batch_times = grid 10 50. in
  let full_n = Ctmc.Chain.states chain in
  let streams =
    List.init batch_width (fun i ->
        {
          Ctmc.Analysis.start = Numeric.Vec.unit full_n (i * full_n / batch_width);
          coeff = Ctmc.Analysis.Tail_over_lambda;
          times = batch_times;
        })
  in
  let unbatched () =
    List.iter
      (fun b ->
        ignore
          (Ctmc.Analysis.poisson_mixture_batch a ~dir:Ctmc.Analysis.Forward
             [ b ]
            : Numeric.Vec.t list list))
      streams
  in
  let batched () =
    ignore
      (Ctmc.Analysis.poisson_mixture_batch a ~dir:Ctmc.Analysis.Forward streams
        : Numeric.Vec.t list list)
  in
  (* the same K streams through the reward-projected face, each dotted
     with the cost vector: one dot per stream per step instead of one
     full-length axpy per (stream, time point) *)
  let projected () =
    ignore
      (Ctmc.Analysis.poisson_mixture_values a ~dir:Ctmc.Analysis.Forward
         (List.map (fun b -> (b, m.Core.Measures.cost)) streams)
        : float list list)
  in
  (* one untimed batched sweep warms the session and counts its steps *)
  let (), warm = counting batched in
  (* best of five per side, the three sides timed in alternating rounds
     so that a slow spell of the machine hits all of them alike *)
  let best = [| infinity; infinity; infinity |] in
  for _ = 1 to 5 do
    List.iteri
      (fun side f ->
        let t0 = Unix.gettimeofday () in
        f ();
        best.(side) <- Float.min best.(side) (Unix.gettimeofday () -. t0))
      [ unbatched; batched; projected ]
  done;
  let unbatched_seconds = best.(0)
  and batched_seconds = best.(1)
  and projected_seconds = best.(2) in
  let sweeps_per_solve = warm "mixture_steps" in
  (* streamed-bytes estimate of one blocked sweep: CSR values (8 B) and
     packed column indices (4 B, two to an OCaml int) per stored entry
     (transitions + uniformization diagonal), row pointers (8 B, one int
     each), and the K-wide interleaved vectors read and written once per
     state per step *)
  let full_states = float_of_int full_n in
  let nnz = float_of_int (Ctmc.Chain.transition_count chain) +. full_states in
  let step_bytes =
    (nnz *. 12.) +. ((full_states +. 1.) *. 8.)
    +. (float_of_int batch_width *. 16. *. full_states)
  in
  let spmv_gbps =
    float_of_int sweeps_per_solve *. step_bytes /. batched_seconds /. 1e9
  in
  Format.printf
    "kernel: %d-stream fig7 sweep -> batched %.4f s vs unbatched %.4f s \
     (%.2fx, ~%.2f GB/s), projected %.4f s@."
    batch_width batched_seconds unbatched_seconds
    (unbatched_seconds /. batched_seconds)
    spmv_gbps projected_seconds;
  let ms, sl =
    counting (fun () ->
        let ms = Core.Measures.analyze ~symmetric:true model_line2_frf1 in
        ignore (Core.Measures.availability ms);
        ignore (Core.Measures.availability ms);
        ms)
  in
  Format.printf
    "kernel: quotient availability x2 -> steady %d solved/%d hits (%d states)@."
    (sl "steady_solves") (sl "steady_hits")
    (Ctmc.Chain.states (Core.Measures.built ms).Core.Semantics.chain);
  [
    ("mixture_passes", float_of_int (s "mixture_passes"));
    ("mixture_steps", float_of_int (s "mixture_steps"));
    ("states", float_of_int full_n);
    ("batch_width", float_of_int batch_width);
    ("batched_seconds", batched_seconds);
    ("unbatched_seconds", unbatched_seconds);
    ("projected_seconds", projected_seconds);
    ("sweeps_per_solve", float_of_int sweeps_per_solve);
    ("spmv_gb_per_s", spmv_gbps);
    ("batch_columns", float_of_int (s "batch_columns"));
  ]

(* ------------------------------------------------------------------ *)
(* BENCH_JSON: the full timings object *)

let num_i i = Json.num (float_of_int i)

let write_json path ~artifacts ~kernel ~ablations =
  let artifact a =
    Json.Obj
      [
        ("id", Str a.art_id);
        ("seconds", Json.num a.art_seconds);
        ("points", num_i a.art_points);
        ( "state_spaces",
          List
            (List.map
               (fun (label, n) ->
                 Json.Obj [ ("chain", Str label); ("states", num_i n) ])
               a.art_states) );
      ]
  in
  let json =
    Json.Obj
      [
        ("bench_points", num_i bench_points);
        ("par_domains", num_i (Numeric.Parallel.default_domains ()));
        ("artifacts", List (List.map artifact artifacts));
        ("kernel", Obj (List.map (fun (name, v) -> (name, Json.num v)) kernel));
        ( "ablations",
          List
            (List.map
               (fun (id, dt) ->
                 Json.Obj [ ("id", Str id); ("seconds", Json.num dt) ])
               ablations) );
        (* empty-but-valid when OBS_METRICS is off *)
        ("metrics", Obs.Metrics.to_json (Obs.Metrics.snapshot ()));
      ]
  in
  (* write-then-rename (unique temp + rename in Obs): an interrupted or
     crashed run can never leave a truncated JSON artifact behind *)
  Obs.write_file_atomic path (Json.to_string json ^ "\n");
  Format.printf "wrote timings to %s@." path

let () =
  Obs.init ();
  let artifacts =
    if skip "BENCH_SKIP_ARTIFACTS" then [] else print_artifacts ()
  in
  let kernel = kernel_counters () in
  let ablations =
    if skip "BENCH_SKIP_ABLATIONS" then [] else print_ablations ()
  in
  (match Sys.getenv_opt "BENCH_JSON" with
  | Some path -> write_json path ~artifacts ~kernel ~ablations
  | None -> ());
  if Obs.Trace.enabled () then
    Format.eprintf "%a" Obs.Trace.pp_self_times (Obs.Trace.self_times ())
