type t = {
  component : string;
  unavailability : float;
  birnbaum : float;
  improvement_potential : float;
  risk_achievement_worth : float;
  fussell_vesely : float;
}

(* Exact system unavailability under independence: sum over all assignments
   of basic events, weighting each by its probability. Exponential in the
   number of basics, fine for architectural models (<= ~20 components). *)
let system_unavailability model ~q =
  let tree = model.Model.fault_tree in
  let basics = Array.of_list (Fault_tree.basics tree) in
  let n = Array.length basics in
  if n > 24 then invalid_arg "Importance: too many basic events for enumeration";
  let probs = Array.map q basics in
  Array.iteri
    (fun i p ->
      if p < 0. || p > 1. then
        invalid_arg
          (Printf.sprintf "Importance: unavailability of %s out of [0,1]" basics.(i)))
    probs;
  let index = Hashtbl.create n in
  Array.iteri (fun i name -> Hashtbl.replace index name i) basics;
  let total = ref 0. in
  for mask = 0 to (1 lsl n) - 1 do
    let weight = ref 1. in
    for i = 0 to n - 1 do
      let failed = mask land (1 lsl i) <> 0 in
      weight := !weight *. (if failed then probs.(i) else 1. -. probs.(i))
    done;
    if !weight > 0. then begin
      let truth name = mask land (1 lsl Hashtbl.find index name) <> 0 in
      if Fault_tree.eval tree truth then total := !total +. !weight
    end
  done;
  !total

let marginal_unavailabilities ?analysis built =
  let chain = built.Semantics.chain in
  let pi = Ctmc.Steady_state.solve ?analysis chain in
  let basics =
    Fault_tree.basics built.Semantics.model.Model.fault_tree
  in
  List.map
    (fun literal ->
      let pred = Semantics.literal_pred built literal in
      let acc = ref 0. in
      Array.iteri (fun s mass -> if pred s then acc := !acc +. mass) pi;
      (literal, !acc))
    basics

let of_unavailabilities model ~q =
  let lookup name =
    match List.assoc_opt name q with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Importance: no unavailability for %s" name)
  in
  let baseline = system_unavailability model ~q:lookup in
  let forced name value other = if other = name then value else lookup other in
  List.filter_map
    (fun (name, qi) ->
      if not (List.mem name (Fault_tree.basics model.Model.fault_tree)) then None
      else begin
        let down_if_failed = system_unavailability model ~q:(forced name 1.) in
        let down_if_perfect = system_unavailability model ~q:(forced name 0.) in
        let birnbaum = down_if_failed -. down_if_perfect in
        Some
          {
            component = name;
            unavailability = qi;
            birnbaum;
            improvement_potential = baseline -. down_if_perfect;
            risk_achievement_worth =
              (if baseline > 0. then down_if_failed /. baseline else infinity);
            fussell_vesely =
              (* P(system down and some cut set through i is down) /
                 P(system down); under coherence this equals
                 1 - P(down | i perfect)/P(down) *)
              (if baseline > 0. then 1. -. (down_if_perfect /. baseline) else 0.);
          }
      end)
    q

let analyze ?analysis built =
  let q = marginal_unavailabilities ?analysis built in
  let indices = of_unavailabilities built.Semantics.model ~q in
  List.sort (fun a b -> compare b.birnbaum a.birnbaum) indices

let pp_table ppf indices =
  Format.fprintf ppf "  %-10s %-10s %-10s %-12s %-8s %-8s@." "component" "unavail."
    "birnbaum" "improvement" "RAW" "F-V";
  List.iter
    (fun t ->
      Format.fprintf ppf "  %-10s %.7f  %.7f  %.7f    %6.2f   %.4f@." t.component
        t.unavailability t.birnbaum t.improvement_potential t.risk_achievement_worth
        t.fussell_vesely)
    indices
