module X = Xml_kit

exception Schema_error of string

let () =
  Printexc.register_printer (function
    | Schema_error msg -> Some (Printf.sprintf "Core.Xml_io.Schema_error (%s)" msg)
    | _ -> None)

type measure_spec = { measure_name : string; query : string }

type pos = (int * int) option

type raw_mode = {
  rm_name : string;
  rm_mttf : float option;
  rm_mttr : float option;
  rm_stages : int option;
  rm_failed_cost : float;
  rm_pos : pos;
}

type raw_component = {
  rc_name : string;
  rc_modes : raw_mode list;
  rc_operational_cost : float;
  rc_pos : pos;
}

type raw_repair_unit = {
  rr_name : string;
  rr_strategy : Repair.strategy option;
  rr_crews : int option;
  rr_components : string list;
  rr_idle_cost : float;
  rr_busy_cost : float;
  rr_preemptive : bool;
  rr_pos : pos;
}

type raw_spare_unit = {
  rs_name : string;
  rs_mode : Spare.mode;
  rs_primaries : string list;
  rs_spares : string list;
  rs_pos : pos;
}

type raw_gate =
  | Gbasic of string * pos
  | Gand of raw_gate list * pos
  | Gor of raw_gate list * pos
  | Gkofn of int option * raw_gate list * pos

type raw_measure = { ms_name : string; ms_query : string; ms_pos : pos }

type raw = {
  raw_name : string;
  raw_pos : pos;  (** the root element's *)
  raw_components : raw_component list;
  raw_repair_units : raw_repair_unit list;
  raw_spare_units : raw_spare_unit list;
  raw_fault_tree : raw_gate option;
  raw_measures : raw_measure list;
}

type error = { err_pos : pos; err_subject : string; err_message : string }

(* ------------------------------------------------------------------ *)
(* Writing *)

let float_attr x =
  (* shortest representation that round-trips *)
  let s = Printf.sprintf "%.12g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let component_to_xml c =
  X.element "component"
    ([
       ("name", c.Component.name);
       ("mttf", float_attr c.Component.mttf);
       ("mttr", float_attr c.Component.mttr);
       ("failed-cost", float_attr c.Component.failed_cost);
       ("operational-cost", float_attr c.Component.operational_cost);
     ]
    @
    if c.Component.repair_stages > 1 then
      [ ("repair-stages", string_of_int c.Component.repair_stages) ]
    else [])
    (List.map
       (fun m ->
         X.element "mode"
           ([
              ("name", m.Component.fm_name);
              ("mttf", float_attr m.Component.fm_mttf);
              ("mttr", float_attr m.Component.fm_mttr);
              ("failed-cost", float_attr m.Component.fm_failed_cost);
            ]
           @
           if m.Component.fm_repair_stages > 1 then
             [ ("repair-stages", string_of_int m.Component.fm_repair_stages) ]
           else [])
           [])
       c.Component.extra_modes)

let ref_el tag name = X.element tag [ ("ref", name) ] []

let repair_unit_to_xml ru =
  let strategy_name, members =
    match ru.Repair.strategy with
    | Repair.Dedicated -> ("dedicated", ru.Repair.components)
    | Repair.Fcfs -> ("fcfs", ru.Repair.components)
    | Repair.Frf -> ("frf", ru.Repair.components)
    | Repair.Fff -> ("fff", ru.Repair.components)
    | Repair.Priority order -> ("priority", order)
  in
  X.element "repair-unit"
    [
      ("name", ru.Repair.name);
      ("strategy", strategy_name);
      ("crews", string_of_int ru.Repair.crews);
      ("idle-cost", float_attr ru.Repair.idle_cost);
      ("busy-cost", float_attr ru.Repair.busy_cost);
      ("preemptive", string_of_bool ru.Repair.preemptive);
    ]
    (List.map (ref_el "component") members)

let spare_unit_to_xml smu =
  X.element "spare-unit"
    [ ("name", smu.Spare.name); ("mode", Spare.mode_to_string smu.Spare.mode) ]
    (List.map (ref_el "primary") smu.Spare.primaries
    @ List.map (ref_el "spare") smu.Spare.spares)

let rec fault_tree_to_xml tree =
  match tree with
  | Fault_tree.Basic name -> ref_el "basic" name
  | Fault_tree.And inputs -> X.element "and" [] (List.map fault_tree_to_xml inputs)
  | Fault_tree.Or inputs -> X.element "or" [] (List.map fault_tree_to_xml inputs)
  | Fault_tree.Kofn (k, inputs) ->
      X.element "kofn" [ ("k", string_of_int k) ] (List.map fault_tree_to_xml inputs)

let measure_to_xml m =
  X.element "measure" [ ("name", m.measure_name); ("query", m.query) ] []

let to_xml ?(measures = []) model =
  X.element "arcade"
    [ ("name", model.Model.name) ]
    ([
       X.element "components" [] (List.map component_to_xml model.Model.components);
     ]
    @ (if model.Model.repair_units = [] then []
       else
         [
           X.element "repair-units" []
             (List.map repair_unit_to_xml model.Model.repair_units);
         ])
    @ (if model.Model.spare_units = [] then []
       else
         [
           X.element "spare-units" []
             (List.map spare_unit_to_xml model.Model.spare_units);
         ])
    @ [ X.element "fault-tree" [] [ fault_tree_to_xml model.Model.fault_tree ] ]
    @
    if measures = [] then []
    else [ X.element "measures" [] (List.map measure_to_xml measures) ])

(* ------------------------------------------------------------------ *)
(* Reading. [read] never raises: a malformed piece becomes a positioned
   error, a default takes its place, and reading goes on, so that one pass
   reports every schema error of a document. *)

let read ?(pos = fun _ -> None) doc =
  let errors = ref [] in
  let error el fmt =
    Printf.ksprintf
      (fun err_message ->
        let err_subject =
          match el with X.Element (tag, _, _) -> "<" ^ tag ^ ">" | X.Text _ -> "#text"
        in
        errors := { err_pos = pos el; err_subject; err_message } :: !errors)
      fmt
  in
  (* [None] when the attribute is absent (then [default]) or unparsable *)
  let value ?default parse kind el key =
    match X.attribute el key with
    | None -> default
    | Some raw -> (
        match parse raw with
        | Some v -> Some v
        | None ->
            error el "attribute %s=%S is not %s" key raw kind;
            None)
  in
  let required parse kind el key =
    match X.attribute el key with
    | None ->
        error el "missing attribute %S" key;
        None
    | Some _ -> value parse kind el key
  in
  let string = required Option.some "" in
  let cost el key default =
    Option.value (value float_of_string_opt "a number" el key) ~default
  in
  let name el = Option.value (string el "name") ~default:"?" in
  let mode ~name el =
    let rm_mttf = required float_of_string_opt "a number" el "mttf" in
    let rm_mttr = required float_of_string_opt "a number" el "mttr" in
    let rm_stages = value ~default:1 int_of_string_opt "an integer" el "repair-stages" in
    let rm_failed_cost = cost el "failed-cost" 3. in
    { rm_name = name; rm_mttf; rm_mttr; rm_stages; rm_failed_cost; rm_pos = pos el }
  in
  let component el =
    let rc_name = name el in
    let primary = mode ~name:"failed" el in
    let modes = List.map (fun m -> mode ~name:(name m) m) (X.find_children el "mode") in
    {
      rc_name;
      rc_modes = primary :: modes;
      rc_operational_cost = cost el "operational-cost" 0.;
      rc_pos = pos el;
    }
  in
  let refs tag el =
    List.filter_map (fun child -> string child "ref") (X.find_children el tag)
  in
  let repair_unit el =
    let rr_name = name el in
    let rr_components = refs "component" el in
    let rr_strategy =
      match string el "strategy" with
      | None -> None
      | Some raw -> (
          match String.lowercase_ascii raw with
          | "priority" -> Some (Repair.Priority rr_components)
          | other -> (
              try Some (Repair.strategy_of_string raw)
              with Invalid_argument _ ->
                error el "unknown repair strategy %S" other;
                None))
    in
    let rr_crews = value int_of_string_opt "an integer" el "crews" in
    let rr_idle_cost = cost el "idle-cost" 1. in
    let rr_busy_cost = cost el "busy-cost" 0. in
    let rr_preemptive =
      Option.value ~default:false
        (value bool_of_string_opt "a boolean" el "preemptive")
    in
    {
      rr_name;
      rr_strategy;
      rr_crews;
      rr_components;
      rr_idle_cost;
      rr_busy_cost;
      rr_preemptive;
      rr_pos = pos el;
    }
  in
  let spare_unit el =
    let rs_name = name el in
    let rs_mode =
      match string el "mode" with
      | None -> Spare.Hot
      | Some raw -> (
          try Spare.mode_of_string raw
          with Invalid_argument _ ->
            error el "unknown spare mode %S" (String.lowercase_ascii raw);
            Spare.Hot)
    in
    let rs_primaries = refs "primary" el in
    let rs_spares = refs "spare" el in
    { rs_name; rs_mode; rs_primaries; rs_spares; rs_pos = pos el }
  in
  let rec gate el =
    let inputs () = List.filter_map gate (X.child_elements el) in
    match X.name el with
    | "basic" -> Option.map (fun r -> Gbasic (r, pos el)) (string el "ref")
    | "and" -> Some (Gand (inputs (), pos el))
    | "or" -> Some (Gor (inputs (), pos el))
    | "kofn" ->
        let k = required int_of_string_opt "an integer" el "k" in
        Some (Gkofn (k, inputs (), pos el))
    | other ->
        error el "unexpected fault-tree element <%s>" other;
        None
  in
  let measure el =
    match (X.attribute el "name", X.attribute el "query") with
    | Some ms_name, Some ms_query -> Some { ms_name; ms_query; ms_pos = pos el }
    | _ ->
        error el "a <measure> needs both name and query attributes";
        None
  in
  let section tag item_tag item =
    match X.find_child doc tag with
    | Some el -> List.map item (X.find_children el item_tag)
    | None -> []
  in
  let is_arcade =
    match doc with
    | X.Element ("arcade", _, _) -> true
    | X.Element (other, _, _) ->
        error doc "expected root <arcade>, got <%s>" other;
        false
    | X.Text _ ->
        error doc "expected a root element";
        false
  in
  let raw_name = if is_arcade then name doc else "?" in
  if is_arcade && X.find_child doc "components" = None then
    error doc "missing <components>";
  let raw_components = section "components" "component" component in
  let raw_repair_units = section "repair-units" "repair-unit" repair_unit in
  let raw_spare_units = section "spare-units" "spare-unit" spare_unit in
  let raw_fault_tree =
    match X.find_child doc "fault-tree" with
    | Some el -> (
        match X.child_elements el with
        | [ root ] -> gate root
        | roots ->
            error el "<fault-tree> must have exactly one root gate";
            Option.bind (List.nth_opt roots 0) gate)
    | None ->
        error doc "missing <fault-tree>";
        None
  in
  let raw_measures = List.filter_map Fun.id (section "measures" "measure" measure) in
  ( {
      raw_name;
      raw_pos = pos doc;
      raw_components;
      raw_repair_units;
      raw_spare_units;
      raw_fault_tree;
      raw_measures;
    },
    List.rev !errors )

exception Rejected of error

let to_model raw =
  (* a constructor's rejection of a record is positioned at the record *)
  let at err_pos err_subject f =
    try f ()
    with Invalid_argument err_message ->
      raise (Rejected { err_pos; err_subject; err_message })
  in
  let required what = function
    | Some v -> v
    | None -> invalid_arg ("Xml_io.to_model: no valid " ^ what)
  in
  let mode m =
    at m.rm_pos "<mode>" @@ fun () ->
    Component.failure_mode ~name:m.rm_name ~mttf:(required "mttf" m.rm_mttf)
      ~mttr:(required "mttr" m.rm_mttr) ~failed_cost:m.rm_failed_cost
      ~repair_stages:(required "repair-stages" m.rm_stages) ()
  in
  let component rc =
    at rc.rc_pos "<component>" @@ fun () ->
    match rc.rc_modes with
    | [] -> invalid_arg "Xml_io.to_model: component without a mode"
    | primary :: extra ->
        Component.make ~extra_modes:(List.map mode extra) ~name:rc.rc_name
          ~mttf:(required "mttf" primary.rm_mttf)
          ~mttr:(required "mttr" primary.rm_mttr)
          ~repair_stages:(required "repair-stages" primary.rm_stages)
          ~failed_cost:primary.rm_failed_cost
          ~operational_cost:rc.rc_operational_cost ()
  in
  let repair_unit rr =
    at rr.rr_pos "<repair-unit>" @@ fun () ->
    Repair.make ~name:rr.rr_name
      ~strategy:(required "strategy" rr.rr_strategy)
      ~components:rr.rr_components
      ~crews:(Option.value rr.rr_crews ~default:1)
      ~idle_cost:rr.rr_idle_cost ~busy_cost:rr.rr_busy_cost
      ~preemptive:rr.rr_preemptive ()
  in
  let spare_unit rs =
    at rs.rs_pos "<spare-unit>" @@ fun () ->
    Spare.make ~name:rs.rs_name ~mode:rs.rs_mode ~primaries:rs.rs_primaries
      ~spares:rs.rs_spares ()
  in
  let rec gate = function
    | Gbasic (name, p) -> at p "<basic>" (fun () -> Fault_tree.basic name)
    | Gand (inputs, p) ->
        let inputs = List.map gate inputs in
        at p "<and>" (fun () -> Fault_tree.and_ inputs)
    | Gor (inputs, p) ->
        let inputs = List.map gate inputs in
        at p "<or>" (fun () -> Fault_tree.or_ inputs)
    | Gkofn (k, inputs, p) ->
        let inputs = List.map gate inputs in
        at p "<kofn>" (fun () -> Fault_tree.kofn (required "k" k) inputs)
  in
  match
    let components = List.map component raw.raw_components in
    let repair_units = List.map repair_unit raw.raw_repair_units in
    let spare_units = List.map spare_unit raw.raw_spare_units in
    let fault_tree =
      gate
        (at raw.raw_pos "<fault-tree>" (fun () ->
             required "fault tree" raw.raw_fault_tree))
    in
    at raw.raw_pos "<arcade>" @@ fun () ->
    Model.make ~name:raw.raw_name ~components ~repair_units ~spare_units
      ~fault_tree ()
  with
  | model ->
      Ok
        ( model,
          List.map
            (fun ms -> { measure_name = ms.ms_name; query = ms.ms_query })
            raw.raw_measures )
  | exception Rejected e -> Error e

let locate ?file at =
  match (at, file) with
  | Some (line, column), Some f -> Printf.sprintf "%s:%d:%d: " f line column
  | Some (line, column), None -> Printf.sprintf "%d:%d: " line column
  | None, Some f -> f ^ ": "
  | None, None -> ""

let of_xml ?file ?pos doc =
  let fail at message = raise (Schema_error (locate ?file at ^ message)) in
  match read ?pos doc with
  | _, first :: _ -> fail first.err_pos first.err_message
  | raw, [] -> (
      match to_model raw with
      | Ok r -> r
      | Error e -> fail e.err_pos e.err_message)

let load path =
  match X.parse_file_located path with
  | doc, pos -> of_xml ~file:path ~pos doc
  | exception X.Parse_error { line; column; message } ->
      raise
        (Schema_error
           (Printf.sprintf "%s:%d:%d: parse error: %s" path line column message))
