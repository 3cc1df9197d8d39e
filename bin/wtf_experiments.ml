(* Command-line front-end for the water-treatment reproduction: regenerate
   any table or figure of the paper, as plain text or CSV. *)

open Cmdliner

let all_ids = Watertreatment.Experiments.ids @ Watertreatment.Ablations.ids

let lookup id : (?points:int -> unit -> Watertreatment.Experiments.artifact) option =
  match Watertreatment.Experiments.by_id id with
  | Some gen -> Some gen
  | None -> (
      match Watertreatment.Ablations.by_id id with
      | Some gen -> Some (fun ?points () -> ignore points; gen ())
      | None -> None)

let run_experiments ids points csv output trace metrics =
  Obs.init ();
  (match trace with Some path -> Obs.Trace.set_output (Some path) | None -> ());
  if metrics then Obs.Metrics.set_enabled true;
  let selected =
    match ids with
    | [] ->
        List.map (fun id -> (id, Option.get (lookup id))) Watertreatment.Experiments.ids
    | [ "all" ] -> List.map (fun id -> (id, Option.get (lookup id))) all_ids
    | [ "ablations" ] ->
        List.map (fun id -> (id, Option.get (lookup id))) Watertreatment.Ablations.ids
    | ids ->
        List.map
          (fun id ->
            match lookup id with
            | Some gen -> (id, gen)
            | None ->
                Printf.eprintf "unknown experiment %S; available: %s\n" id
                  (String.concat ", " all_ids);
                exit 2)
          ids
  in
  let out, close =
    match output with
    | None -> (Format.std_formatter, fun () -> ())
    | Some path ->
        let oc = open_out path in
        (Format.formatter_of_out_channel oc, fun () -> close_out oc)
  in
  List.iter
    (fun (id, gen) ->
      let artifact = gen ?points:(Some points) () in
      (match (artifact, csv) with
      | Watertreatment.Experiments.Figure f, true ->
          Format.fprintf out "%s@." (Watertreatment.Experiments.figure_to_csv f)
      | _, _ -> Watertreatment.Experiments.render_artifact out artifact);
      Format.fprintf out "@.";
      ignore id)
    selected;
  Format.pp_print_flush out ();
  close ();
  (* the run's self-time ledger, on stderr so the output stays the
     artifacts alone *)
  if trace <> None then
    Format.eprintf "%a" Obs.Trace.pp_self_times (Obs.Trace.self_times ());
  if metrics then
    Format.printf "%a@." Obs.Metrics.pp (Obs.Metrics.snapshot ())

let ids_arg =
  let doc =
    "Experiments to run (e.g. table1 fig4 lumping importance_line1), or the \
     keywords 'all' / 'ablations'. Default: the paper's artifacts table1, \
     table2, fig3..fig11."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

(* a curve samples both ends of its time axis, so it needs two points *)
let points_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 2 -> Ok n
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "expected an integer of at least 2, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let points_arg =
  let doc = "Number of time samples per curve (at least 2)." in
  Arg.(value & opt points_conv 25 & info [ "points"; "n" ] ~docv:"N" ~doc)

let csv_arg =
  let doc = "Emit figures as CSV instead of gnuplot-style blocks." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let output_arg =
  let doc = "Write to $(docv) instead of standard output." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON of the run to $(docv): one span per \
     artifact, nested spans per strategy/series and solver phase (open in \
     Perfetto or chrome://tracing). Also print the spans' self-time ledger \
     (self and total seconds and count per span name) to standard error. \
     OBS_TRACE=$(docv) writes the same file without the ledger."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Print the observability metrics snapshot (analysis cache, mixture \
     and solver counters, recent solver convergences) after the \
     artifacts. OBS_METRICS=1 prints it to stderr at exit instead; \
     OBS_METRICS=$(i,FILE) writes it as JSON."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let cmd =
  let doc = "Reproduce the tables and figures of the Arcade water-treatment paper" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Regenerates the evaluation artifacts of 'Evaluating Repair Strategies \
         for a Water-Treatment Facility using Arcade' (DSN 2010): state-space \
         sizes (table1), steady-state availability (table2), reliability \
         (fig3), survivability after disasters (fig4, fig5, fig8, fig9) and \
         instantaneous/accumulated repair cost (fig6, fig7, fig10, fig11).";
    ]
  in
  Cmd.v
    (Cmd.info "wtf_experiments" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run_experiments $ ids_arg $ points_arg $ csv_arg $ output_arg
      $ trace_arg $ metrics_arg)

let () = exit (Cmd.eval cmd)
