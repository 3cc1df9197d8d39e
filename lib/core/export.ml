let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Fault trees *)

let fault_tree_nodes buf tree =
  (* returns the root node id; emits node and edge lines *)
  let counter = ref 0 in
  let fresh prefix =
    incr counter;
    Printf.sprintf "%s_%d" prefix !counter
  in
  let rec go tree =
    match tree with
    | Fault_tree.Basic name ->
        let id = "basic_" ^ To_prism.sanitize name in
        Buffer.add_string buf
          (Printf.sprintf "  %s [shape=circle, label=\"%s\"];\n" id (escape name));
        id
    | Fault_tree.And inputs ->
        let id = fresh "and" in
        Buffer.add_string buf
          (Printf.sprintf "  %s [shape=house, label=\"AND\"];\n" id);
        List.iter
          (fun g -> Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" id (go g)))
          inputs;
        id
    | Fault_tree.Or inputs ->
        let id = fresh "or" in
        Buffer.add_string buf
          (Printf.sprintf "  %s [shape=invhouse, label=\"OR\"];\n" id);
        List.iter
          (fun g -> Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" id (go g)))
          inputs;
        id
    | Fault_tree.Kofn (k, inputs) ->
        let id = fresh "kofn" in
        Buffer.add_string buf
          (Printf.sprintf "  %s [shape=hexagon, label=\"%d/%d\"];\n" id k
             (List.length inputs));
        List.iter
          (fun g -> Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" id (go g)))
          inputs;
        id
  in
  go tree

let fault_tree_to_dot ?(name = "fault_tree") tree =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" (To_prism.sanitize name));
  Buffer.add_string buf "  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n";
  let root = fault_tree_nodes buf tree in
  Buffer.add_string buf
    (Printf.sprintf "  system_down [shape=doubleoctagon, label=\"system down\"];\n\
                    \  system_down -> %s;\n" root);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Architectural view *)

let model_to_dot model =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "digraph %s {\n" (To_prism.sanitize model.Model.name));
  Buffer.add_string buf
    "  rankdir=LR;\n  node [fontname=\"Helvetica\"];\n  compound=true;\n";
  let comp_id name = "comp_" ^ To_prism.sanitize name in
  let in_some_ru = Hashtbl.create 16 in
  List.iteri
    (fun u ru ->
      Buffer.add_string buf
        (Printf.sprintf "  subgraph cluster_ru_%d {\n    label=\"%s (%s, %d crew%s)\";\n"
           u ru.Repair.name
           (Repair.strategy_to_string ru.Repair.strategy)
           (Repair.crew_count ru)
           (if Repair.crew_count ru = 1 then "" else "s"));
      List.iter
        (fun name ->
          Hashtbl.replace in_some_ru name ();
          let c = Model.component model name in
          Buffer.add_string buf
            (Printf.sprintf
               "    %s [shape=box, label=\"%s\\nMTTF %g h, MTTR %g h%s\"];\n"
               (comp_id name) (escape name) c.Component.mttf c.Component.mttr
               (if c.Component.repair_stages > 1 then
                  Printf.sprintf "\\nErlang-%d repair" c.Component.repair_stages
                else "")))
        ru.Repair.components;
      Buffer.add_string buf "  }\n")
    model.Model.repair_units;
  List.iter
    (fun c ->
      let name = c.Component.name in
      if not (Hashtbl.mem in_some_ru name) then
        Buffer.add_string buf
          (Printf.sprintf "  %s [shape=box, label=\"%s\\nMTTF %g h, MTTR %g h\\n(no repair)\"];\n"
             (comp_id name) (escape name) c.Component.mttf c.Component.mttr))
    model.Model.components;
  List.iter
    (fun smu ->
      List.iter
        (fun spare ->
          List.iter
            (fun primary ->
              Buffer.add_string buf
                (Printf.sprintf
                   "  %s -> %s [style=dashed, label=\"%s spare\", dir=back];\n"
                   (comp_id primary) (comp_id spare)
                   (Spare.mode_to_string smu.Spare.mode)))
            smu.Spare.primaries)
        smu.Spare.spares)
    model.Model.spare_units;
  (* attach the fault tree *)
  Buffer.add_string buf "  subgraph cluster_ft {\n    label=\"fault tree\";\n";
  let ft_buf = Buffer.create 256 in
  let root = fault_tree_nodes ft_buf model.Model.fault_tree in
  (* indent the fault-tree lines to sit inside the cluster *)
  String.split_on_char '\n' (Buffer.contents ft_buf)
  |> List.iter (fun line ->
         if line <> "" then Buffer.add_string buf ("  " ^ line ^ "\n"));
  Buffer.add_string buf "  }\n";
  List.iter
    (fun basic ->
      Buffer.add_string buf
        (Printf.sprintf "  basic_%s -> %s [style=dotted];\n"
           (To_prism.sanitize basic) (comp_id basic)))
    (Fault_tree.basics model.Model.fault_tree);
  ignore root;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* State spaces *)

let chain_to_dot ?(max_states = 500) built =
  let chain = built.Semantics.chain in
  let n = Ctmc.Chain.states chain in
  if n > max_states then
    invalid_arg
      (Printf.sprintf "Export.chain_to_dot: %d states exceed the limit of %d" n
         max_states);
  let names = Array.of_list (Model.component_names built.Semantics.model) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph ctmc {\n  rankdir=LR;\n  node [fontname=\"Helvetica\"];\n";
  let service_level = Semantics.service_level built in
  for s = 0 to n - 1 do
    let st = Semantics.state built s in
    let failed =
      Array.to_list names
      |> List.filteri (fun i _ -> not st.Semantics.up.(i))
    in
    let label =
      if failed = [] then "all up" else String.concat "," failed
    in
    let level = service_level s in
    (* shade: full service white, no service dark *)
    let grey = 100 - int_of_float (level *. 60.) in
    Buffer.add_string buf
      (Printf.sprintf "  s%d [shape=ellipse, style=filled, fillcolor=\"gray%d\", label=\"%s\"];\n"
         s grey (escape label))
  done;
  Numeric.Sparse.iteri (Ctmc.Chain.rates chain) (fun i j rate ->
      Buffer.add_string buf
        (Printf.sprintf "  s%d -> s%d [label=\"%.4g\"];\n" i j rate));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
