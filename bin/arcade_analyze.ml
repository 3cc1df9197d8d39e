(* End-to-end analysis of an Arcade XML model: build the CTMC through the
   direct semantics and evaluate CSL/CSRL queries — either those embedded in
   the XML <measures> element or given on the command line. *)

open Cmdliner
module Session = Core.Measures.Session

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let run_lint input ~werror =
  let diags, _ = Lint.lint_file input in
  List.iter (fun d -> print_endline (Lint.Diagnostic.to_string d)) diags;
  let errors = Lint.Diagnostic.count Lint.Diagnostic.Error diags in
  let warnings = Lint.Diagnostic.count Lint.Diagnostic.Warning diags in
  if errors > 0 || (werror && warnings > 0) then begin
    Printf.eprintf "%s: lint failed (%d error(s), %d warning(s)%s)\n" input
      errors warnings
      (if werror && errors = 0 then ", warnings are errors" else "");
    exit 1
  end

let analyze input queries disaster stats dot_prefix trace metrics lint werror =
  Obs.init ();
  (match trace with Some path -> Obs.Trace.set_output (Some path) | None -> ());
  if metrics then Obs.Metrics.set_enabled true;
  if lint || werror then run_lint input ~werror;
  let model, measures =
    try Core.Xml_io.load input
    with Core.Xml_io.Schema_error msg ->
      prerr_endline msg;
      exit 1
  in
  let fail msg =
    Printf.eprintf "%s: %s\n" input msg;
    exit 1
  in
  let session =
    try
      let initial =
        match disaster with
        | [] -> None
        | failed -> Some (Core.Semantics.disaster_state model ~failed)
      in
      Session.create ?initial model
    with Core.Semantics.Build_error msg | Invalid_argument msg -> fail msg
  in
  (match dot_prefix with
  | None -> ()
  | Some prefix ->
      let built =
        try Core.Measures.built (Session.chain session Session.Full)
        with Core.Semantics.Build_error msg -> fail msg
      in
      write_file (prefix ^ "_model.dot") (Core.Export.model_to_dot model);
      write_file (prefix ^ "_fault_tree.dot")
        (Core.Export.fault_tree_to_dot model.Core.Model.fault_tree);
      (try
         write_file (prefix ^ "_chain.dot") (Core.Export.chain_to_dot built);
         Format.printf "wrote %s_model.dot, %s_fault_tree.dot, %s_chain.dot@." prefix
           prefix prefix
       with Invalid_argument _ ->
         Format.printf
           "wrote %s_model.dot, %s_fault_tree.dot (chain too large for DOT)@." prefix
           prefix));
  let failures = ref 0 in
  (* each query on the chain the session routes it to; a chain that
     cannot be built fails the queries routed to it alone *)
  let run name query =
    let error msg =
      incr failures;
      Format.printf "%-30s %s : error (%s)@." name query msg
    in
    match Csl.Parser.parse query with
    | exception Csl.Parser.Syntax_error { line; column; message; _ } ->
        incr failures;
        Format.printf "%-30s %s : syntax error at %d:%d (%s)@." name query line
          column message
    | ast -> (
        match
          let kind = Session.route session ast in
          Core.Measures.to_csl_model (Session.chain session kind)
        with
        | exception Core.Semantics.Build_error msg -> error msg
        | csl -> (
            match Csl.Checker.check_string csl query with
            | Csl.Checker.Value v -> Format.printf "%-30s %s = %.9f@." name query v
            | Csl.Checker.Satisfied b -> Format.printf "%-30s %s = %b@." name query b
            | exception (Csl.Checker.Unsupported msg | Failure msg) -> error msg))
  in
  List.iter (fun { Core.Xml_io.measure_name; query } -> run measure_name query) measures;
  List.iteri (fun i q -> run (Printf.sprintf "query[%d]" i) q) queries;
  if measures = [] && queries = [] then begin
    Format.printf "no queries given; computing the default measure set:@.";
    run "availability" "S=? [ \"full_service\" ]";
    run "any-service availability" "S=? [ \"operational\" ]";
    run "unreliability(1000h)" "P=? [ true U<=1000 !\"full_service\" ]";
    run "steady-state cost" "R{\"cost\"}=? [ S ]"
  end;
  if stats then
    List.iter
      (fun (kind, m) ->
        Format.printf "%s %a@."
          (Session.kind_name kind)
          Ctmc.Chain.pp_stats (Core.Measures.built m).Core.Semantics.chain)
      (Session.built session);
  if metrics then
    Format.printf "%a@." Obs.Metrics.pp (Obs.Metrics.snapshot ());
  if !failures > 0 then begin
    Printf.eprintf "%d of the queries failed to evaluate\n" !failures;
    exit 1
  end

let input_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL.xml" ~doc:"Arcade XML model")

let query_arg =
  let doc = "CSL/CSRL query to evaluate (repeatable)." in
  Arg.(value & opt_all string [] & info [ "q"; "query" ] ~docv:"QUERY" ~doc)

let disaster_arg =
  let doc = "Component that starts failed (repeatable); builds the GOOD model." in
  Arg.(value & opt_all string [] & info [ "d"; "disaster" ] ~docv:"COMPONENT" ~doc)

let stats_arg =
  let doc =
    "After the results, print the statistics of each chain built, named \
     $(b,symmetric) (the quotient under interchangeable components, which \
     answers the group-invariant steady-state queries) or $(b,full)."
  in
  Arg.(value & flag & info [ "s"; "stats" ] ~doc)

let dot_arg =
  let doc =
    "Write Graphviz views to $(docv)_model.dot, $(docv)_fault_tree.dot and \
     (for small chains) $(docv)_chain.dot."
  in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"PREFIX" ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON of the analysis to $(docv) (open in \
     Perfetto or chrome://tracing). Equivalent to OBS_TRACE=$(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Print the observability metrics snapshot (analysis cache, mixture \
     and solver counters, recent solver convergences) after the \
     results. OBS_METRICS=1 prints it to stderr at exit instead; \
     OBS_METRICS=$(i,FILE) writes it as JSON."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let lint_arg =
  let doc =
    "Run the static analyzer (Arcade.Lint) on the model before building \
     the state space; exit 1 on error-level findings."
  in
  Arg.(value & flag & info [ "lint" ] ~doc)

let werror_arg =
  let doc = "With $(b,--lint) (implied): treat lint warnings as errors." in
  Arg.(value & flag & info [ "werror" ] ~doc)

let cmd =
  let doc = "Model-check CSL/CSRL measures on Arcade XML models" in
  Cmd.v
    (Cmd.info "arcade_analyze" ~version:"1.0.0" ~doc)
    Term.(
      const analyze $ input_arg $ query_arg $ disaster_arg $ stats_arg
      $ dot_arg $ trace_arg $ metrics_arg $ lint_arg $ werror_arg)

let () = exit (Cmd.eval cmd)
