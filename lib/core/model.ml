type t = {
  name : string;
  components : Component.t list;
  repair_units : Repair.t list;
  spare_units : Spare.t list;
  fault_tree : Fault_tree.t;
}

let validate model =
  let names = List.map (fun c -> c.Component.name) model.components in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Model: duplicate component %s" n);
      Hashtbl.replace seen n ())
    names;
  let exists n = Hashtbl.mem seen n in
  let repaired = Hashtbl.create 16 in
  List.iter
    (fun ru ->
      List.iter
        (fun c ->
          if not (exists c) then
            invalid_arg
              (Printf.sprintf "Model: repair unit %s references unknown component %s"
                 ru.Repair.name c);
          if Hashtbl.mem repaired c then
            invalid_arg
              (Printf.sprintf "Model: component %s repaired by two units" c);
          Hashtbl.replace repaired c ru.Repair.name)
        ru.Repair.components)
    model.repair_units;
  List.iter
    (fun smu ->
      List.iter
        (fun c ->
          if not (exists c) then
            invalid_arg
              (Printf.sprintf "Model: spare unit %s references unknown component %s"
                 smu.Spare.name c))
        (Spare.members smu))
    model.spare_units;
  let in_spare = Hashtbl.create 16 in
  List.iter
    (fun smu ->
      List.iter
        (fun c ->
          if Hashtbl.mem in_spare c then
            invalid_arg (Printf.sprintf "Model: component %s in two spare units" c);
          Hashtbl.replace in_spare c ())
        (Spare.members smu))
    model.spare_units;
  Fault_tree.validate model.fault_tree;
  let mode_exists comp mode_name =
    match List.find_opt (fun c -> c.Component.name = comp) model.components with
    | None -> false
    | Some c ->
        List.exists (fun m -> m.Component.fm_name = mode_name) (Component.modes c)
  in
  List.iter
    (fun b ->
      match String.index_opt b ':' with
      | None ->
          if not (exists b) then
            invalid_arg
              (Printf.sprintf "Model: fault tree references unknown component %s" b)
      | Some i ->
          let comp = String.sub b 0 i in
          let mode_name = String.sub b (i + 1) (String.length b - i - 1) in
          if not (exists comp) then
            invalid_arg
              (Printf.sprintf "Model: fault tree references unknown component %s" comp);
          if not (mode_exists comp mode_name) then
            invalid_arg
              (Printf.sprintf "Model: component %s has no failure mode %s" comp
                 mode_name))
    (Fault_tree.basics model.fault_tree)

let make ?(repair_units = []) ?(spare_units = []) ~name ~components ~fault_tree () =
  if name = "" then invalid_arg "Model.make: empty name";
  if components = [] then invalid_arg "Model.make: no components";
  let model = { name; components; repair_units; spare_units; fault_tree } in
  validate model;
  model

let split_literal b =
  match String.index_opt b ':' with
  | None -> (b, None)
  | Some i -> (String.sub b 0 i, Some (String.sub b (i + 1) (String.length b - i - 1)))

let component model name =
  List.find (fun c -> c.Component.name = name) model.components

let component_names model = List.map (fun c -> c.Component.name) model.components

let repair_unit_of model name =
  List.find_opt (fun ru -> List.mem name ru.Repair.components) model.repair_units

let spare_unit_of model name =
  List.find_opt (fun smu -> List.mem name (Spare.members smu)) model.spare_units

let service_tree model = Fault_tree.dual model.fault_tree

let service_levels model = Fault_tree.service_levels (service_tree model)

let with_repair_units model repair_units =
  let model = { model with repair_units } in
  validate model;
  model
