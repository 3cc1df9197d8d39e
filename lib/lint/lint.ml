(* Library root: re-export the passes and provide the one-call drivers. *)

module Diagnostic = Diagnostic
module Model_rules = Model_rules
module Chain_rules = Chain_rules
module Query_rules = Query_rules
module Prism_rules = Prism_rules
module D = Diagnostic

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let severity_counter = function
  | D.Error -> Obs.Metrics.counter "lint.diagnostics.error"
  | D.Warning -> Obs.Metrics.counter "lint.diagnostics.warning"
  | D.Info -> Obs.Metrics.counter "lint.diagnostics.info"

let record diags =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr (Obs.Metrics.counter "lint.files");
    List.iter (fun d -> Obs.Metrics.incr (severity_counter d.D.severity)) diags
  end

let has_errors diags = List.exists (fun d -> d.D.severity = D.Error) diags

(* ------------------------------------------------------------------ *)
(* Drivers *)

let schema_failure ?position message =
  D.make ?position ~code:"ARC-X001" ~severity:D.Error ~subject:"model" "%s"
    message

let schema_diag (e : Core.Xml_io.error) =
  D.make ?position:e.err_pos ~code:"ARC-X001" ~severity:D.Error
    ~subject:e.err_subject "%s" e.err_message

let query_pass (raw : Core.Xml_io.raw) ~queries ~levels model =
  let ctx =
    Query_rules.context_of_model
      ~multiple_bsccs:(Chain_rules.multiple_bsccs raw)
      ~levels model
  in
  List.concat_map
    (fun (ms : Core.Xml_io.raw_measure) ->
      Query_rules.check_string ?position:ms.ms_pos ctx
        ~subject:(Printf.sprintf "measure %s" ms.ms_name)
        ms.ms_query)
    raw.raw_measures
  @ List.concat
      (List.mapi
         (fun i query ->
           Query_rules.check_string ctx
             ~subject:(Printf.sprintf "query[%d]" i)
             query)
         queries)

(* The diagnostics, and the model the query pass built from the raw
   records with the service levels it enumerated ([None] when the static
   rules or the model construction failed). *)
let lint_doc ?file ?pos ?(queries = []) doc =
  Obs.Trace.with_span "lint.doc" @@ fun _ ->
  let raw, static =
    Obs.Trace.with_span "lint.rules" @@ fun _ ->
    let raw, errors = Core.Xml_io.read ?pos doc in
    ( raw,
      List.map schema_diag errors @ Model_rules.check raw @ Chain_rules.check raw )
  in
  let query_diags, model =
    (* Only chase queries once the model itself is clean: a broken model
       makes label sets meaningless. The model constructors can still
       reject what no raw rule covers: keep that as ARC-X001. *)
    if has_errors static then ([], None)
    else
      Obs.Trace.with_span "lint.queries" @@ fun _ ->
      match Core.Xml_io.to_model raw with
      | Ok (model, _) ->
          let levels = Query_rules.levels_of_model model in
          (query_pass raw ~queries ~levels model, Some (model, levels))
      | Error e -> ([ schema_diag e ], None)
  in
  let all = static @ query_diags in
  let all =
    match file with Some f -> List.map (D.with_file f) all | None -> all
  in
  let all = D.sort all in
  record all;
  (all, model)

let lint_source ?file ?queries input =
  match Xml_kit.parse_string_located input with
  | doc, pos -> lint_doc ?file ~pos ?queries doc
  | exception Xml_kit.Parse_error { line; column; message } ->
      let d =
        schema_failure ~position:(line, column)
          (Printf.sprintf "XML parse error: %s" message)
      in
      let d = match file with Some f -> D.with_file f d | None -> d in
      record [ d ];
      ([ d ], None)

let lint_string ?file input = fst (lint_source ?file input)

let lint_file ?queries path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> lint_source ~file:path ?queries contents
  | exception Sys_error msg ->
      let d = schema_failure (Printf.sprintf "cannot read file: %s" msg) in
      ([ D.with_file path d ], None)

let lint_model ?(queries = []) model =
  let measures =
    List.map (fun (measure_name, query) -> { Core.Xml_io.measure_name; query }) queries
  in
  fst (lint_doc (Core.Xml_io.to_xml ~measures model))

(* ------------------------------------------------------------------ *)
(* Debug-build hook: generated models (Watertreatment.Facility, the
   experiment drivers) self-lint when ARCADE_DEBUG_LINT is set, so a
   refactoring that produces a silently-broken model fails fast. *)

(* Read once, when the module is initialized: not a [lazy], because the
   experiment drivers build models on several domains at once, and a
   lazy forced by two domains together raises [Lazy.Undefined]. *)
let debug_enabled =
  match Sys.getenv_opt "ARCADE_DEBUG_LINT" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let debug_check ~what ?queries model =
  if debug_enabled then begin
    let diags =
      List.filter
        (fun d -> d.D.severity <> D.Info)
        (lint_model ?queries model)
    in
    List.iter (fun d -> prerr_endline (what ^ ": " ^ D.to_string d)) diags;
    if has_errors diags then
      failwith
        (Printf.sprintf "ARCADE_DEBUG_LINT: %d lint error(s) in %s"
           (D.count D.Error diags) what)
  end

(* ------------------------------------------------------------------ *)
(* The rule catalogue, for [arcade_lint --rules] and the docs. *)

let catalogue : D.rule list =
  let r rule_code rule_severity rule_layer rule_title rule_rationale =
    { D.rule_code; rule_severity; rule_layer; rule_title; rule_rationale }
  in
  [
    r "ARC-X001" D.Error "model" "malformed schema item"
      "missing or unparsable attributes, unexpected elements and XML parse \
       errors are reported with source positions instead of exceptions";
    r "ARC-M001" D.Error "model" "unknown component or mode reference"
      "repair units, spare units and fault-tree basics must name declared \
       components (and declared failure modes)";
    r "ARC-M002" D.Error "model" "duplicate component name"
      "component names key every cross-reference; duplicates make them \
       ambiguous";
    r "ARC-M003" D.Error "model" "component repaired twice"
      "two repair units competing for one component is undefined in Arcade";
    r "ARC-M004" D.Warning "model" "unused component"
      "a component neither in the fault tree nor in a spare unit multiplies \
       the state space without influencing any measure predicate";
    r "ARC-M005" D.Warning "model" "unrepaired component"
      "in a model with a repair organisation, a component outside it stays \
       failed forever — usually an oversight";
    r "ARC-M006" D.Warning "model" "dedicated strategy ignores crews"
      "dedicated repair acts as one crew per component; an explicit crew \
       count suggests a different strategy was intended";
    r "ARC-M007" D.Error "model" "crew-count sanity"
      "non-positive crews or an empty unit is an error; more crews than \
       components only accrues idle cost (warning)";
    r "ARC-M008" D.Error "model" "non-positive or non-finite MTTF/MTTR"
      "rates are 1/mean; zero, negative or infinite means produce a \
       malformed generator";
    r "ARC-M009" D.Warning "model" "MTTR not below MTTF"
      "a component failed at least half the time usually means the two \
       means are swapped";
    r "ARC-M010" D.Error "model" "degenerate Erlang stage count"
      "stages < 1 is an error; very large stage counts multiply the state \
       space for no accuracy gain (warning)";
    r "ARC-M011" D.Error "model" "priority list mismatch"
      "a priority order must name exactly the unit's components, once each";
    r "ARC-M012" D.Error "model" "spare-unit structure"
      "no primaries, primary/spare overlap, double membership or a warm \
       factor outside (0, 1) break the activation policy";
    r "ARC-M013" D.Error "model" "bad cost rate or empty name"
      "the constructors reject negative cost rates and empty names, and a \
       non-finite cost rate makes every cost measure non-finite";
    r "ARC-F001" D.Warning "model" "no-op gate"
      "single-input and/or, 1-of-n and n-of-n gates obscure the tree \
       without changing it";
    r "ARC-F002" D.Warning "model" "duplicate gate input"
      "identical inputs never add information, and under k-of-n they \
       silently change the threshold semantics";
    r "ARC-F003" D.Warning "model" "absorbed gate input"
      "an input whose removal leaves the minimal cut sets unchanged never \
       determines the top event";
    r "ARC-F004" D.Error "model" "malformed gate"
      "empty gates and k outside 1..n are rejected by the fault-tree \
       semantics";
    r "ARC-C001" D.Info "chain" "absorbing failure configurations"
      "without full repair coverage, time-unbounded measures converge to \
       the all-failed regime (expected for reliability models, hence info)";
    r "ARC-C002" D.Warning "chain" "multiple recurrent classes"
      "an unrepaired component with several failure modes splits the chain; \
       steady-state results then depend on the initial state";
    r "ARC-C003" D.Warning "chain" "stiff chain"
      "a rate spread of 1e6 or more makes uniformisation expensive and \
       costs result digits";
    r "ARC-Q001" D.Error "query" "CSL syntax error"
      "reported with line:column inside the query string";
    r "ARC-Q002" D.Error "query" "unknown label"
      "labels are checked against the model's actual label set (down, \
       operational, full_service, sl_ge_<i>, <c>_failed, <c>:<mode>)";
    r "ARC-Q003" D.Error "query" "unknown reward structure"
      "reward queries must name cost, component_cost or repair_cost";
    r "ARC-Q004" D.Error "query" "nested =? query"
      "P/S/R=? is a top-level query form, not a state formula";
    r "ARC-Q005" D.Error "query" "bad time bound"
      "negative, non-finite or inverted time intervals have no semantics";
    r "ARC-Q006" D.Error "query" "unresolvable atomic expression"
      "Arcade models expose labels only; raw state expressions raise \
       Unsupported at evaluation time";
    r "ARC-Q007" D.Warning "query" "steady-state query on a split chain"
      "with several recurrent classes the long-run result is an \
       initial-state-dependent mix";
    r "ARC-Q008" D.Warning "query" "trivial probability bound"
      "bounds outside [0,1], P>=0 and P<=1 are always or never satisfied";
    r "ARC-P001" D.Warning "prism" "constant-false guard"
      "a command whose guard is false from constants alone can never fire";
    r "ARC-P002" D.Warning "prism" "unused constant"
      "dead declarations in generated PRISM output usually indicate a \
       translator regression";
    r "ARC-P003" D.Warning "prism" "unused formula"
      "formulas not reachable from labels, guards, rates, updates or \
       rewards are dead weight";
  ]
