(* Static analysis of Arcade XML models without building the state space:
   model-layer, chain-layer and query-layer rules from Arcade.Lint, with
   stable ARC-* rule codes for CI use. Exit status: 0 clean, 1 findings at
   error level (or warning level under --werror), 2 usage errors. *)

open Cmdliner

module D = Lint.Diagnostic

let print_rules () =
  List.iter
    (fun (r : D.rule) ->
      Printf.printf "%-9s %-7s %-6s %s\n    %s\n" r.D.rule_code
        (D.severity_to_string r.D.rule_severity)
        r.D.rule_layer r.D.rule_title r.D.rule_rationale)
    Lint.catalogue

let prism_diags file model =
  match Core.To_prism.translate model with
  | prism -> List.map (D.with_file file) (Lint.Prism_rules.check prism)
  | exception Core.To_prism.Untranslatable msg ->
      [
        D.with_file file
          (D.make ~code:"ARC-P001" ~severity:D.Info ~subject:"model"
             "not translatable to PRISM: %s" msg);
      ]

let run files werror prism queries rules quiet =
  Obs.init ();
  if rules then begin
    print_rules ();
    exit 0
  end;
  if files = [] then begin
    prerr_endline "arcade_lint: no model files given (see --help)";
    exit 2
  end;
  let total_errors = ref 0 and total_warnings = ref 0 in
  List.iter
    (fun file ->
      let diags, model = Lint.lint_file ~queries file in
      let diags =
        match model with
        | Some (model, _) when prism -> D.sort (diags @ prism_diags file model)
        | _ -> diags
      in
      List.iter (fun d -> print_endline (D.to_string d)) diags;
      total_errors := !total_errors + D.count D.Error diags;
      total_warnings := !total_warnings + D.count D.Warning diags)
    files;
  let failed = !total_errors > 0 || (werror && !total_warnings > 0) in
  if not quiet then
    Printf.printf "%d file(s): %d error(s), %d warning(s)%s\n"
      (List.length files) !total_errors !total_warnings
      (if failed then "" else " -- clean");
  exit (if failed then 1 else 0)

let files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"MODEL.xml" ~doc:"Arcade XML models")

let werror_arg =
  let doc = "Treat warnings as errors (info-level findings never fail)." in
  Arg.(value & flag & info [ "werror" ] ~doc)

let prism_arg =
  let doc =
    "Also translate each model with the PRISM exporter and run the ARC-P \
     rules over the generated module system."
  in
  Arg.(value & flag & info [ "prism" ] ~doc)

let query_arg =
  let doc =
    "Extra CSL/CSRL query to lint against each model (repeatable), with the \
     same checks as the model's embedded measures."
  in
  Arg.(value & opt_all string [] & info [ "q"; "query" ] ~docv:"QUERY" ~doc)

let rules_arg =
  let doc = "Print the rule catalogue and exit." in
  Arg.(value & flag & info [ "rules" ] ~doc)

let quiet_arg =
  let doc = "Suppress the summary line (diagnostics are still printed)." in
  Arg.(value & flag & info [ "quiet" ] ~doc)

let cmd =
  let doc = "Statically analyze Arcade XML models, chains and CSL queries" in
  Cmd.v
    (Cmd.info "arcade_lint" ~version:"1.0.0" ~doc)
    Term.(
      const run $ files_arg $ werror_arg $ prism_arg $ query_arg $ rules_arg
      $ quiet_arg)

let () = exit (Cmd.eval cmd)
