(* Translate an Arcade XML model to PRISM reactive modules — the paper's
   tool chain (Fig. 1) as a standalone tool. The output loads both in this
   repository's PRISM-subset interpreter and in the real PRISM tool. *)

open Cmdliner

let translate input output disaster =
  let model, measures =
    try Core.Xml_io.load input
    with Core.Xml_io.Schema_error msg ->
      prerr_endline msg;
      exit 1
  in
  let initial =
    match disaster with
    | [] -> None
    | failed -> (
        try Some (Core.Semantics.disaster_state model ~failed)
        with Core.Semantics.Build_error msg ->
          Printf.eprintf "%s: %s\n" input msg;
          exit 1)
  in
  let ast =
    try Core.To_prism.translate ?initial model
    with Core.To_prism.Untranslatable msg ->
      Printf.eprintf "cannot translate: %s\n" msg;
      exit 1
  in
  (* self-check the generated module system (ARC-P rules): a dead guard or
     an orphaned formula in the output is a translator regression *)
  List.iter
    (fun d -> prerr_endline (Lint.Diagnostic.to_string d))
    (Lint.Prism_rules.check ast);
  let text = Prism.Printer.model_to_string ast in
  let emit oc =
    output_string oc text;
    if measures <> [] then begin
      output_string oc "\n// measure specifications from the XML input:\n";
      List.iter
        (fun { Core.Xml_io.measure_name; query } ->
          Printf.fprintf oc "// %s: %s\n" measure_name query)
        measures
    end
  in
  match output with
  | None -> emit stdout
  | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> emit oc)

let input_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL.xml" ~doc:"Arcade XML model")

let output_arg =
  let doc = "Write the PRISM model to $(docv) instead of standard output." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let disaster_arg =
  let doc =
    "Component that starts failed (repeatable). Builds the GOOD (given \
     occurrence of disaster) variant of the model used for survivability \
     analysis."
  in
  Arg.(value & opt_all string [] & info [ "d"; "disaster" ] ~docv:"COMPONENT" ~doc)

let cmd =
  let doc = "Translate Arcade XML models to PRISM reactive modules" in
  Cmd.v
    (Cmd.info "arcade2prism" ~version:"1.0.0" ~doc)
    Term.(const translate $ input_arg $ output_arg $ disaster_arg)

let () = exit (Cmd.eval cmd)
