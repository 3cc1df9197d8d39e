open Core

type line = Line1 | Line2

let line_name = function Line1 -> "line1" | Line2 -> "line2"

type config = {
  strategy : Repair.strategy;
  crews : int;
}

let ded = { strategy = Repair.Dedicated; crews = 1 }

let frf crews = { strategy = Repair.Frf; crews }

let fff crews = { strategy = Repair.Fff; crews }

let config_name { strategy; crews } =
  match strategy with
  | Repair.Dedicated -> "DED"
  | Repair.Frf -> Printf.sprintf "FRF-%d" crews
  | Repair.Fff -> Printf.sprintf "FFF-%d" crews
  | Repair.Fcfs -> Printf.sprintf "FCFS-%d" crews
  | Repair.Priority _ -> Printf.sprintf "PRIO-%d" crews

let paper_configs = [ ded; frf 1; frf 2; fff 1; fff 2 ]

(* Rates from the paper's Fig. 2 (assignment validated against Table 2). *)
let mttf name =
  if String.length name >= 4 && String.sub name 0 4 = "pump" then 500.
  else if String.length name >= 3 && String.sub name 0 3 = "res" then 6000.
  else if String.length name >= 2 && String.sub name 0 2 = "st" then 2000.
  else if String.length name >= 2 && String.sub name 0 2 = "sf" then 1000.
  else invalid_arg (Printf.sprintf "Facility.mttf: unknown component kind %s" name)

let mttr name =
  if String.length name >= 4 && String.sub name 0 4 = "pump" then 1.
  else if String.length name >= 3 && String.sub name 0 3 = "res" then 12.
  else if String.length name >= 2 && String.sub name 0 2 = "st" then 5.
  else if String.length name >= 2 && String.sub name 0 2 = "sf" then 100.
  else invalid_arg (Printf.sprintf "Facility.mttr: unknown component kind %s" name)

let softeners = [ "st1"; "st2"; "st3" ]

let sand_filters = function
  | Line1 -> [ "sf1"; "sf2"; "sf3" ]
  | Line2 -> [ "sf1"; "sf2" ]

let pumps = function
  | Line1 -> [ "pump1"; "pump2"; "pump3"; "pump4" ]
  | Line2 -> [ "pump1"; "pump2"; "pump3" ]

let pumps_needed = function Line1 -> 3 | Line2 -> 2

let component_names line = softeners @ sand_filters line @ [ "res" ] @ pumps line

let components line =
  List.map
    (fun name -> Component.make ~name ~mttf:(mttf name) ~mttr:(mttr name) ())
    (component_names line)

(* "Down" fault tree: every softener failed, or every sand filter failed,
   or the reservoir failed, or too many pumps failed. *)
let fault_tree line =
  let all_failed names = Fault_tree.and_ (List.map Fault_tree.basic names) in
  let pump_list = pumps line in
  let excess = List.length pump_list - pumps_needed line + 1 in
  Fault_tree.or_
    [
      all_failed softeners;
      all_failed (sand_filters line);
      Fault_tree.basic "res";
      Fault_tree.kofn excess (List.map Fault_tree.basic pump_list);
    ]

let spare_unit line =
  let pump_list = pumps line in
  let needed = pumps_needed line in
  let rec split k = function
    | [] -> ([], [])
    | x :: rest ->
        if k = 0 then ([], x :: rest)
        else
          let a, b = split (k - 1) rest in
          (x :: a, b)
  in
  let primaries, spares = split needed pump_list in
  Spare.make ~name:(line_name line ^ "_pumps") ~mode:Spare.Hot ~primaries ~spares ()

let repair_unit line config =
  Repair.make ~crews:config.crews
    ~name:(line_name line ^ "_ru")
    ~strategy:config.strategy ~components:(component_names line) ()

let line_model line config =
  let model =
    Model.make
      ~name:(Printf.sprintf "%s_%s" (line_name line) (config_name config))
      ~components:(components line)
      ~repair_units:[ repair_unit line config ]
      ~spare_units:[ spare_unit line ]
      ~fault_tree:(fault_tree line) ()
  in
  Lint.debug_check ~what:model.Model.name model;
  model

let reliability_model line =
  let model =
    Model.make
      ~name:(line_name line ^ "_reliability")
      ~components:(components line)
      ~spare_units:[ spare_unit line ]
      ~fault_tree:(fault_tree line) ()
  in
  (* reliability models only yield info-level findings (ARC-C001): the
     debug hook stays silent on them *)
  Lint.debug_check ~what:model.Model.name model;
  model

let disaster1 line = pumps line

let disaster2 = [ "pump1"; "pump2"; "st1"; "sf1"; "res" ]

let service_intervals line =
  let model = line_model line ded in
  let levels = List.filter (fun l -> l > 1e-9) (Model.service_levels model) in
  let rec pairs = function
    | [] -> []
    | [ last ] -> [ (last, last) ]
    | low :: (high :: _ as rest) -> (low, high) :: pairs rest
  in
  pairs levels

let analyze ?initial line config = Measures.analyze ?initial (line_model line config)

let after_disaster m ~failed =
  let model = (Measures.built m).Semantics.model in
  Measures.rooted m [ (1., Semantics.disaster_state model ~failed) ]

let analyze_after_disaster line config ~failed =
  after_disaster (analyze line config) ~failed
