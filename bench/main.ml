(* Benchmark harness: regenerates every table and figure of the paper and
   times the computations behind them.

   Part 1 prints the reproduced artifacts (the actual data of Tables 1-2 and
   Figures 3-11) with wall-clock generation times at full scale.

   Part 2 registers one Bechamel micro-benchmark per artifact — the analysis
   kernel that regenerates it, run at Line-2 scale so OLS gets enough
   samples — plus ablation benches for the design choices DESIGN.md calls
   out (lumping, the PRISM translation path, simulation) and an
   engine pair contrasting a fresh chain per query against a shared
   Ctmc.Analysis session (the cached path all measures now run through).

   Environment knobs: BENCH_POINTS (curve samples in part 1, default 15),
   BATCH (stream count of the batched-vs-unbatched kernel contrast,
   default 5), BENCH_SKIP_ARTIFACTS=1 (skip part 1), BENCH_SKIP_ABLATIONS=1,
   BENCH_SKIP_MICRO=1 (skip part 2), PAR_DOMAINS (domain fan-out width
   for part 1 and the per-config series inside each artifact; default
   Domain.recommended_domain_count, 1 = sequential), BENCH_JSON=<path>
   (dump the per-artifact timings — with curve point counts and
   state-space sizes — plus kernel counters, the Obs metrics snapshot and
   micro-benchmark estimates as JSON — the BENCH_*.json perf trajectory;
   written atomically via temp file + rename), BENCH_HISTORY=<path>
   (append one compact JSONL entry — git rev, wall times, kernel
   counters, solver iterations — for arcade_bench_diff's regression
   gate; BENCH_REV overrides the recorded revision), OBS_TRACE=<path> (Chrome
   trace-event JSON of the whole run, loadable in Perfetto) and
   OBS_METRICS=1|<path> (enable the metrics registry; print the snapshot
   to stderr at exit, or write it to <path> as JSON). *)

open Bechamel
open Toolkit

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
  | None -> default

let skip name = Sys.getenv_opt name = Some "1"

(* ------------------------------------------------------------------ *)
(* Part 1: print the reproduced artifacts *)

type artifact_timing = {
  art_id : string;
  art_seconds : float;
  art_points : int;  (* total curve points across the artifact's series *)
  art_states : (string * int) list;  (* per-chain state-space sizes *)
}

let print_artifacts () =
  let points = getenv_int "BENCH_POINTS" 15 in
  Format.printf "==========================================================@.";
  Format.printf " Reproduction of the paper's tables and figures@.";
  Format.printf " (curves sampled at %d points; BENCH_POINTS overrides;@." points;
  Format.printf "  artifacts fan out over %d domains, PAR_DOMAINS overrides)@."
    (Numeric.Parallel.default_domains ());
  Format.printf "==========================================================@.@.";
  (* generate in parallel (one artifact per worker; each worker owns its
     chain cache and analysis sessions), render sequentially in order *)
  let results =
    Numeric.Parallel.map
      (fun id ->
        let gen =
          match Watertreatment.Experiments.by_id id with
          | Some gen -> gen
          | None -> assert false
        in
        let t0 = Unix.gettimeofday () in
        let artifact = gen ~points () in
        let dt = Unix.gettimeofday () -. t0 in
        ( {
            art_id = id;
            art_seconds = dt;
            art_points = Watertreatment.Experiments.artifact_points artifact;
            art_states = Watertreatment.Experiments.state_spaces id;
          },
          artifact ))
      Watertreatment.Experiments.ids
  in
  List.map
    (fun (timing, artifact) ->
      Watertreatment.Experiments.render_artifact Format.std_formatter artifact;
      Format.printf "  [%s generated in %.2f s]@.@." timing.art_id
        timing.art_seconds;
      timing)
    results

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
(* Part 2: Bechamel micro-benchmarks *)

(* Prebuilt Line-2 chains shared by the kernels (building them is its own
   benchmark; the measure kernels time the analysis, as in the paper's tool
   chain where PRISM builds once and checks many properties). *)
let line2 = Watertreatment.Facility.Line2

let frf1 = Watertreatment.Facility.frf 1

let model_line2_frf1 = Watertreatment.Facility.line_model line2 frf1

let measures_line2_frf1 = lazy (Core.Measures.analyze model_line2_frf1)

let measures_line2_frf1_lump =
  lazy (Core.Measures.analyze ~lump:true model_line2_frf1)

let measures_line2_ded =
  lazy
    (Core.Measures.analyze
       (Watertreatment.Facility.line_model line2 Watertreatment.Facility.ded))

let good_line2_frf1 =
  lazy
    (Watertreatment.Facility.analyze_after_disaster line2 frf1
       ~failed:Watertreatment.Facility.disaster2)

let reliability_line2 =
  lazy (Core.Measures.analyze (Watertreatment.Facility.reliability_model line2))

let grid n upto = List.init n (fun i -> upto *. float_of_int i /. float_of_int (n - 1))

let test_table1 =
  (* Table 1 kernel: explore the Line 2 FRF-1 state space (8129 states) *)
  Test.make ~name:"table1/state-space-build (line2 frf-1)"
    (Staged.stage (fun () -> Core.Semantics.build model_line2_frf1))

let test_table2 =
  Test.make ~name:"table2/steady-state availability (line2 frf-1)"
    (Staged.stage (fun () ->
         Core.Measures.availability (Lazy.force measures_line2_frf1)))

let test_fig3 =
  Test.make ~name:"fig3/reliability curve (line2, 10 pts)"
    (Staged.stage (fun () ->
         Core.Measures.reliability_curve (Lazy.force reliability_line2)
           ~times:(grid 10 1000.)))

let test_fig4 =
  Test.make ~name:"fig4/survivability X1 curve (line2 D2, 10 pts)"
    (Staged.stage (fun () ->
         Core.Measures.survivability_curve (Lazy.force good_line2_frf1)
           ~service_level:(1. /. 3.) ~times:(grid 10 100.)))

let test_fig5 =
  Test.make ~name:"fig5/survivability X2 curve (line2 D2, 10 pts)"
    (Staged.stage (fun () ->
         Core.Measures.survivability_curve (Lazy.force good_line2_frf1)
           ~service_level:0.5 ~times:(grid 10 100.)))

let test_fig6 =
  Test.make ~name:"fig6/instantaneous cost curve (line2 D2, 10 pts)"
    (Staged.stage (fun () ->
         Core.Measures.instantaneous_cost_curve (Lazy.force good_line2_frf1)
           ~times:(grid 10 50.)))

let test_fig7 =
  Test.make ~name:"fig7/accumulated cost curve (line2 D2, 10 pts)"
    (Staged.stage (fun () ->
         Core.Measures.accumulated_cost_curve (Lazy.force good_line2_frf1)
           ~times:(grid 10 50.)))

let test_fig8 =
  Test.make ~name:"fig8/survivability X1 point (line2 D2, t=100)"
    (Staged.stage (fun () ->
         Core.Measures.survivability (Lazy.force good_line2_frf1)
           ~service_level:(1. /. 3.) ~time:100.))

let test_fig9 =
  Test.make ~name:"fig9/survivability X3 point (line2 D2, t=100)"
    (Staged.stage (fun () ->
         Core.Measures.survivability (Lazy.force good_line2_frf1)
           ~service_level:(2. /. 3.) ~time:100.))

let test_fig10 =
  Test.make ~name:"fig10/instantaneous cost point (line2 D2, t=50)"
    (Staged.stage (fun () ->
         Core.Measures.instantaneous_cost (Lazy.force good_line2_frf1) ~time:50.))

let test_fig11 =
  Test.make ~name:"fig11/accumulated cost point (line2 D2, t=50)"
    (Staged.stage (fun () ->
         Core.Measures.accumulated_cost (Lazy.force good_line2_frf1) ~time:50.))

(* Engine: the cost of one transient query without and with the shared
   analysis session. The fresh path transposes the rates and computes the
   Fox-Glynn weights per call (the pre-engine behaviour); the cached path
   is what every measure above now does. *)

let test_engine_transient_fresh =
  Test.make ~name:"engine/transient query, fresh chain (line2 frf-1, t=100)"
    (Staged.stage (fun () ->
         let m = Lazy.force measures_line2_frf1 in
         let chain = (Core.Measures.built m).Core.Semantics.chain in
         Ctmc.Transient.probability_at chain ~pred:(fun _ -> true) 100.))

let test_engine_transient_cached =
  Test.make ~name:"engine/transient query, cached session (line2 frf-1, t=100)"
    (Staged.stage (fun () ->
         let m = Lazy.force measures_line2_frf1 in
         let chain = (Core.Measures.built m).Core.Semantics.chain in
         Ctmc.Transient.probability_at ~analysis:(Core.Measures.analysis m)
           chain
           ~pred:(fun _ -> true)
           100.))

(* Full vs quotient: the same bounded-until measure (unreliability at
   t=100) on the full FRF-1 chain and through the lumping quotient
   (Analysis.quotient, cached in the session after the first call). *)

let test_engine_until_full =
  Test.make ~name:"engine/bounded-until, full chain (line2 frf-1, t=100)"
    (Staged.stage (fun () ->
         Core.Measures.unreliability (Lazy.force measures_line2_frf1) ~time:100.))

let test_engine_until_quotient =
  Test.make ~name:"engine/bounded-until, quotient (line2 frf-1, t=100)"
    (Staged.stage (fun () ->
         Core.Measures.unreliability
           (Lazy.force measures_line2_frf1_lump)
           ~time:100.))

(* Curve kernels: the PR-1 segmented evaluation (one windowed
   uniformization segment per point, restarting from the previous
   distribution) against the multi-time-point kernel (one shared sweep
   with a per-point accumulator), on the same session and time grid. *)

let curve_times = grid 10 100.

let test_curve_segmented =
  Test.make ~name:"curve/segmented (line2 frf-1 transient, 10 pts)"
    (Staged.stage (fun () ->
         let m = Lazy.force measures_line2_frf1 in
         let chain = (Core.Measures.built m).Core.Semantics.chain in
         let a = Core.Measures.analysis m in
         let _, points =
           List.fold_left
             (fun ((t_prev, pi_prev), acc) t ->
               let pi =
                 Ctmc.Transient.distribution_from ~analysis:a chain pi_prev
                   (t -. t_prev)
               in
               ((t, pi), (t, pi) :: acc))
             ((0., Ctmc.Chain.initial chain), [])
             curve_times
         in
         List.rev points))

let test_curve_multi =
  Test.make ~name:"curve/multi (line2 frf-1 transient, 10 pts)"
    (Staged.stage (fun () ->
         let m = Lazy.force measures_line2_frf1 in
         let chain = (Core.Measures.built m).Core.Semantics.chain in
         Ctmc.Transient.curve ~analysis:(Core.Measures.analysis m) chain
           ~times:curve_times))

(* Ablations *)

let test_ablation_prism_path =
  (* the tool-chain alternative: translate to PRISM, parse, rebuild *)
  Test.make ~name:"ablation/prism-translation path (line2 frf-1)"
    (Staged.stage (fun () ->
         Prism.Builder.build
           (Prism.Parser.parse_model (Core.To_prism.to_string model_line2_frf1))))

let test_ablation_lumping =
  (* the paper's future-work minimization: lump the dedicated Line 2 chain *)
  Test.make ~name:"ablation/lumping (line2 ded, 512 states)"
    (Staged.stage (fun () ->
         let m = Lazy.force measures_line2_ded in
         let built = Core.Measures.built m in
         let chain = built.Core.Semantics.chain in
         let key s =
           let st = Core.Semantics.state built s in
           let count lo hi =
             let acc = ref 0 in
             for i = lo to hi do
               if st.Core.Semantics.up.(i) then incr acc
             done;
             !acc
           in
           Printf.sprintf "%d/%d/%b/%d" (count 0 2) (count 3 4)
             st.Core.Semantics.up.(5) (count 6 8)
         in
         let initial = Ctmc.Lumping.partition_by_key (Ctmc.Chain.states chain) key in
         Ctmc.Lumping.lump chain ~initial))

let test_ablation_simulation =
  Test.make ~name:"ablation/monte-carlo (line2 ded, 100 runs, 500 h)"
    (Staged.stage
       (let rng = Numeric.Rng.create 42L in
        fun () ->
          let m = Lazy.force measures_line2_ded in
          let chain = (Core.Measures.built m).Core.Semantics.chain in
          Ctmc.Simulate.estimate chain rng ~runs:100 ~horizon:500. ~f:(fun path ->
              Ctmc.Simulate.time_in path ~horizon:500. ~pred:(fun _ -> true))))

let test_ablation_uniformization =
  Test.make ~name:"ablation/fox-glynn weights (lambda = 10000)"
    (Staged.stage (fun () -> Numeric.Fox_glynn.compute 10_000.))

let all_tests =
  [
    test_table1; test_table2; test_fig3; test_fig4; test_fig5; test_fig6;
    test_fig7; test_fig8; test_fig9; test_fig10; test_fig11;
    test_engine_transient_fresh; test_engine_transient_cached;
    test_engine_until_full; test_engine_until_quotient;
    test_curve_segmented; test_curve_multi;
    test_ablation_prism_path; test_ablation_lumping; test_ablation_simulation;
    test_ablation_uniformization;
  ]

(* Kernel observability: run one 10-point accumulated-cost curve on a
   fresh Line-2 session and report the mixture counters (one pass, the
   sweep's SpMV count), then one quotient-backed availability on the same
   FRF-1 model and report the lumping counters — dumped into the JSON and
   printed via pp_stats. *)
let kernel_counters () =
  let m = Core.Measures.analyze model_line2_frf1 in
  let a = Core.Measures.analysis m in
  ignore (Core.Measures.accumulated_cost_curve m ~times:(grid 10 50.));
  Format.printf "kernel: 10-pt accumulated curve -> %a@."
    Ctmc.Analysis.pp_stats a;
  let s = Ctmc.Analysis.stats a in
  (* Blocked-kernel contrast (the BATCH knob, default 5): K fig7-style
     Tail_over_lambda streams (accumulated cost over a 10-point grid to
     t=50), each from its own point-mass start so that no two share an
     iterate column, evaluated as K separate single-stream sweeps, as one
     width-K blocked sweep on the same warmed session, and as the same
     blocked sweep through the reward-projected face. CI gates on
     projected_seconds < batched_seconds < unbatched_seconds. *)
  let batch_width = max 1 (getenv_int "BATCH" 5) in
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
          (Ctmc.Analysis.poisson_mixture_multi a ~dir:Ctmc.Analysis.Forward
             ~coeff:b.Ctmc.Analysis.coeff b.Ctmc.Analysis.start
             ~times:b.Ctmc.Analysis.times
            : Numeric.Vec.t list))
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
  let before = Ctmc.Analysis.stats a in
  batched ();
  let after = Ctmc.Analysis.stats a in
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
  let sweeps_per_solve =
    after.Ctmc.Analysis.mixture_steps - before.Ctmc.Analysis.mixture_steps
  in
  (* streamed-bytes estimate of one blocked sweep: CSR values (8 B) and
     column indices (4 B) per stored entry (transitions + uniformization
     diagonal), row pointers (4 B), and the K-wide interleaved vectors
     read and written once per state per step *)
  let full_states = float_of_int full_n in
  let nnz = float_of_int (Ctmc.Chain.transition_count chain) +. full_states in
  let step_bytes =
    (nnz *. 12.) +. ((full_states +. 1.) *. 4.)
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
  let ml = Core.Measures.analyze ~lump:true model_line2_frf1 in
  let al = Core.Measures.analysis ml in
  ignore (Core.Measures.availability ml);
  ignore (Core.Measures.availability ml);
  Format.printf "kernel: quotient availability x2 -> %a@."
    Ctmc.Analysis.pp_stats al;
  let sl = Ctmc.Analysis.stats al in
  let states =
    Ctmc.Chain.states (Core.Measures.built ml).Core.Semantics.chain
  in
  [
    ("mixture_passes", float_of_int s.Ctmc.Analysis.mixture_passes);
    ("mixture_steps", float_of_int s.Ctmc.Analysis.mixture_steps);
    ("states", float_of_int states);
    ("batch_width", float_of_int batch_width);
    ("batched_seconds", batched_seconds);
    ("unbatched_seconds", unbatched_seconds);
    ("projected_seconds", projected_seconds);
    ("sweeps_per_solve", float_of_int sweeps_per_solve);
    ("spmv_gb_per_s", spmv_gbps);
    ("batch_passes", float_of_int after.Ctmc.Analysis.batch_passes);
    ("batch_columns", float_of_int after.Ctmc.Analysis.batch_columns);
    ("lump_builds", float_of_int sl.Ctmc.Analysis.lump_builds);
    ("lump_hits", float_of_int sl.Ctmc.Analysis.lump_hits);
    ("lumped_states", float_of_int sl.Ctmc.Analysis.lumped_states);
  ]

let run_micro () =
  Format.printf "==========================================================@.";
  Format.printf " Bechamel micro-benchmarks (one per table/figure + ablations)@.";
  Format.printf "==========================================================@.";
  let grouped = Test.make_grouped ~name:"arcade" all_tests in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 2.0) ~stabilize:false ~kde:None ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Format.printf "  %-58s %12s@." "benchmark" "time/run";
  List.filter_map
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) ->
          let human =
            if est > 1e9 then Printf.sprintf "%8.3f  s" (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%8.3f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%8.3f us" (est /. 1e3)
            else Printf.sprintf "%8.0f ns" est
          in
          Format.printf "  %-58s %12s@." name human;
          Some (name, est)
      | Some [] | None ->
          Format.printf "  %-58s %12s@." name "n/a";
          None)
    rows

(* ------------------------------------------------------------------ *)
(* BENCH_JSON: machine-readable timings (the BENCH_*.json trajectory) *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_timings buf key field entries =
  Buffer.add_string buf (Printf.sprintf "  %S: [\n" key);
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"%s\": \"%s\", \"%s\": %.6f}%s\n" "id"
           (json_escape name) field v
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  Buffer.add_string buf "  ]"

let json_artifacts buf entries =
  Buffer.add_string buf "  \"artifacts\": [\n";
  List.iteri
    (fun i a ->
      let states =
        String.concat ", "
          (List.map
             (fun (label, n) -> Printf.sprintf "{\"chain\": \"%s\", \"states\": %d}"
                (json_escape label) n)
             a.art_states)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"id\": \"%s\", \"seconds\": %.6f, \"points\": %d, \
            \"state_spaces\": [%s]}%s\n"
           (json_escape a.art_id) a.art_seconds a.art_points states
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  Buffer.add_string buf "  ]"

let write_json path ~artifacts ~kernel ~ablations ~micro =
  (* Obs.Metrics.to_json is a complete JSON object: embed it verbatim as
     the "metrics" member (empty-but-valid when OBS_METRICS is off). *)
  let metrics_json = String.trim (Obs.Metrics.to_json (Obs.Metrics.snapshot ())) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"bench_points\": %d,\n" (getenv_int "BENCH_POINTS" 15));
  Buffer.add_string buf
    (Printf.sprintf "  \"par_domains\": %d,\n"
       (Numeric.Parallel.default_domains ()));
  json_artifacts buf artifacts;
  Buffer.add_string buf ",\n";
  Buffer.add_string buf "  \"kernel\": {";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (name, v) -> Printf.sprintf "\"%s\": %.6g" (json_escape name) v)
          kernel));
  Buffer.add_string buf "},\n";
  json_timings buf "ablations" "seconds" ablations;
  Buffer.add_string buf ",\n";
  json_timings buf "micro" "ns_per_run" micro;
  Buffer.add_string buf ",\n";
  Buffer.add_string buf (Printf.sprintf "  \"metrics\": %s" metrics_json);
  Buffer.add_string buf "\n}\n";
  (* write-then-rename (unique temp + rename in Obs): an interrupted or
     crashed run can never leave a truncated JSON artifact behind *)
  Obs.write_file_atomic path (Buffer.contents buf);
  Format.printf "wrote timings to %s@." path

(* ------------------------------------------------------------------ *)
(* BENCH_HISTORY: append-only JSONL perf trajectory, one compact entry
   per run. arcade_bench_diff compares two entries (or the last two of
   one file) and fails CI past a wall-time regression threshold. *)

let git_rev () =
  match Sys.getenv_opt "BENCH_REV" with
  | Some rev when rev <> "" -> rev
  | _ -> (
      match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
      | ic -> (
          let line = try input_line ic with End_of_file -> "" in
          match Unix.close_process_in ic with
          | Unix.WEXITED 0 when line <> "" -> line
          | _ -> "unknown")
      | exception Unix.Unix_error _ -> "unknown")

let append_history path ~artifacts ~kernel =
  (* total solver iterations across all iterative solvers, from the
     metrics registry (0 when OBS_METRICS is off) *)
  let solver_iterations =
    List.fold_left
      (fun acc (name, v) ->
        let suffix = ".iterations" in
        let n = String.length name and ns = String.length suffix in
        if
          n > ns + 7
          && String.sub name 0 7 = "solver."
          && String.sub name (n - ns) ns = suffix
        then acc + v
        else acc)
      0
      (Obs.Metrics.snapshot ()).Obs.Metrics.counters
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"rev\": \"%s\", \"unix_time\": %.0f, \"bench_points\": %d, \
        \"par_domains\": %d, \"artifacts\": ["
       (json_escape (git_rev ()))
       (Unix.gettimeofday ())
       (getenv_int "BENCH_POINTS" 15)
       (Numeric.Parallel.default_domains ()));
  List.iteri
    (fun i a ->
      Buffer.add_string buf
        (Printf.sprintf "%s{\"id\": \"%s\", \"seconds\": %.6f}"
           (if i = 0 then "" else ", ")
           (json_escape a.art_id) a.art_seconds))
    artifacts;
  Buffer.add_string buf "], \"kernel\": {";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (name, v) -> Printf.sprintf "\"%s\": %.6g" (json_escape name) v)
          kernel));
  Buffer.add_string buf
    (Printf.sprintf "}, \"solver_iterations\": %d}\n" solver_iterations);
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Format.printf "appended history entry to %s@." path

let () =
  Obs.init ();
  let artifacts =
    if skip "BENCH_SKIP_ARTIFACTS" then [] else print_artifacts ()
  in
  let kernel = kernel_counters () in
  let ablations =
    if skip "BENCH_SKIP_ABLATIONS" then [] else print_ablations ()
  in
  let micro = if skip "BENCH_SKIP_MICRO" then [] else run_micro () in
  (match Sys.getenv_opt "BENCH_HISTORY" with
  | Some path when path <> "" -> append_history path ~artifacts ~kernel
  | Some _ | None -> ());
  match Sys.getenv_opt "BENCH_JSON" with
  | Some path -> write_json path ~artifacts ~kernel ~ablations ~micro
  | None -> ()
