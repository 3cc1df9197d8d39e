open Core

let f7 = Printf.sprintf "%.7f"

let f2 = Printf.sprintf "%.2f"

let crew_sweep ?(max_crews = 4) line =
  let rows =
    List.concat_map
      (fun strategy ->
        List.map
          (fun crews ->
            let config = { Facility.strategy; crews } in
            let m = Facility.analyze line config in
            let chain = (Measures.built m).Semantics.chain in
            [
              Facility.config_name config;
              string_of_int (Ctmc.Chain.states chain);
              f7 (Measures.availability m);
              f2 (Measures.mean_time_to_degradation m);
              f2 (Measures.steady_state_cost m);
            ])
          (List.init max_crews (fun i -> i + 1)))
      [ Repair.Frf; Repair.Fff ]
    @ [
        (let m = Facility.analyze line Facility.ded in
         [
           "DED";
           string_of_int (Ctmc.Chain.states (Measures.built m).Semantics.chain);
           f7 (Measures.availability m);
           f2 (Measures.mean_time_to_degradation m);
           f2 (Measures.steady_state_cost m);
         ]);
      ]
  in
  {
    Experiments.table_id = "crew_sweep";
    title =
      Printf.sprintf
        "Ablation: crew-count sweep (%s) — availability, MTTF, steady cost"
        (Facility.line_name line);
    header = [ "Strategy"; "States"; "Avail."; "MTTDegr (h)"; "Cost/h" ];
    rows;
  }

let strategy_matrix line =
  let configs =
    [
      ("DED", Repair.Dedicated, 1, false);
      ("FCFS-1", Repair.Fcfs, 1, false);
      ("FCFS-2", Repair.Fcfs, 2, false);
      ("FRF-1", Repair.Frf, 1, false);
      ("FRF-1p", Repair.Frf, 1, true);
      ("FRF-2", Repair.Frf, 2, false);
      ("FRF-2p", Repair.Frf, 2, true);
      ("FFF-1", Repair.Fff, 1, false);
      ("FFF-1p", Repair.Fff, 1, true);
    ]
  in
  let rows =
    List.map
      (fun (label, strategy, crews, preemptive) ->
        let ru =
          Repair.make ~crews ~preemptive
            ~name:(Facility.line_name line ^ "_ru")
            ~strategy
            ~components:(Model.component_names (Facility.line_model line Facility.ded))
            ()
        in
        let model = Model.with_repair_units (Facility.line_model line Facility.ded) [ ru ] in
        let m = Measures.analyze model in
        let chain = (Measures.built m).Semantics.chain in
        [
          label;
          string_of_int (Ctmc.Chain.states chain);
          string_of_int (Ctmc.Chain.transition_count chain);
          f7 (Measures.availability m);
          f2 (Measures.steady_state_cost m);
        ])
      configs
  in
  {
    Experiments.table_id = "strategy_matrix";
    title =
      Printf.sprintf
        "Ablation: strategy matrix incl. FCFS and preemption (%s; 'p' = preemptive)"
        (Facility.line_name line);
    header = [ "Strategy"; "States"; "Trans."; "Avail."; "Cost/h" ];
    rows;
  }

(* Symmetry partition for a dedicated line chain: states are equivalent when
   they agree on the number of up components of each kind. *)
let kind_signature built s =
  let model = built.Semantics.model in
  let state = Semantics.state built s in
  let counts = Hashtbl.create 4 in
  List.iteri
    (fun i name ->
      let kind = String.sub name 0 2 in
      let up, total = try Hashtbl.find counts kind with Not_found -> (0, 0) in
      Hashtbl.replace counts kind
        ((if state.Semantics.up.(i) then up + 1 else up), total + 1))
    (Model.component_names model);
  let entries = Hashtbl.fold (fun k (u, t) acc -> (k, u, t) :: acc) counts [] in
  String.concat ";"
    (List.map (fun (k, u, t) -> Printf.sprintf "%s:%d/%d" k u t)
       (List.sort compare entries))

let lumping_table () =
  let rows =
    List.map
      (fun line ->
        let m = Facility.analyze line Facility.ded in
        let built = Measures.built m in
        let chain = built.Semantics.chain in
        let n = Ctmc.Chain.states chain in
        let initial = Ctmc.Lumping.partition_by_key n (kind_signature built) in
        let r = Ctmc.Lumping.lump chain ~initial in
        let quotient = r.Ctmc.Lumping.quotient in
        (* availability on the quotient must match *)
        let full = Semantics.service_at_least built 1. in
        let block_full =
          Array.map (function s :: _ -> full s | [] -> false) r.Ctmc.Lumping.blocks
        in
        let avail_q =
          Ctmc.Steady_state.long_run_probability
            ~analysis:(Ctmc.Analysis.create quotient) quotient
            ~pred:(fun b -> block_full.(b))
        in
        [
          Facility.line_name line;
          string_of_int n;
          string_of_int (Ctmc.Chain.states quotient);
          Printf.sprintf "%.1fx" (float_of_int n /. float_of_int (Ctmc.Chain.states quotient));
          f7 (Measures.availability m);
          f7 avail_q;
        ])
      [ Facility.Line1; Facility.Line2 ]
  in
  {
    Experiments.table_id = "lumping";
    title =
      "Ablation: strong-bisimulation lumping of the dedicated chains (paper's \
       future work)";
    header = [ "Line"; "States"; "Lumped"; "Reduction"; "Avail."; "Avail. (lumped)" ];
    rows;
  }

let importance_table line =
  let m = Facility.analyze line Facility.ded in
  let indices = Importance.analyze ~analysis:(Measures.analysis m) (Measures.built m) in
  let rows =
    List.map
      (fun i ->
        [
          i.Importance.component;
          f7 i.Importance.unavailability;
          f7 i.Importance.birnbaum;
          f7 i.Importance.improvement_potential;
          f2 i.Importance.risk_achievement_worth;
          Printf.sprintf "%.4f" i.Importance.fussell_vesely;
        ])
      indices
  in
  {
    Experiments.table_id = "importance";
    title =
      Printf.sprintf
        "Ablation: component importance (%s, dedicated repair; sorted by Birnbaum)"
        (Facility.line_name line);
    header = [ "Component"; "Unavail."; "Birnbaum"; "Improvement"; "RAW"; "F-V" ];
    rows;
  }

(* Erlang-repair ablation: replace the exponential repairs with Erlang-k
   repairs of the same mean and watch Disaster-1 recovery. Low-variance
   repairs recover later-but-surer: the survivability curve steepens around
   the mean repair time. *)
let erlang_repair_table ?(levels = [ 1; 2; 4; 8 ]) () =
  let line = Facility.Line2 in
  let rebuild stages =
    let components =
      List.map
        (fun name ->
          Component.make ~name ~mttf:(Facility.mttf name) ~mttr:(Facility.mttr name)
            ~repair_stages:stages ())
        (Model.component_names (Facility.line_model line Facility.ded))
    in
    let base = Facility.line_model line (Facility.frf 1) in
    Model.make ~name:(Printf.sprintf "line2_frf1_erlang%d" stages) ~components
      ~repair_units:base.Model.repair_units ~spare_units:base.Model.spare_units
      ~fault_tree:base.Model.fault_tree ()
  in
  let rows =
    List.map
      (fun stages ->
        let model = rebuild stages in
        let init = Semantics.disaster_state model ~failed:(Facility.disaster1 line) in
        let m = Measures.analyze ~initial:init model in
        let surv t = Measures.survivability m ~service_level:1. ~time:t in
        [
          Printf.sprintf "Erlang-%d" stages;
          string_of_int (Ctmc.Chain.states (Measures.built m).Semantics.chain);
          f7 (Measures.availability m);
          f7 (surv 1.);
          f7 (surv 2.);
          f7 (surv 5.);
        ])
      levels
  in
  {
    Experiments.table_id = "erlang_repair";
    title =
      "Ablation: Erlang-k repair times (line2 FRF-1, Disaster 1) — recovery \
       timing shifts; availability only via queueing";
    header =
      [ "Repair dist."; "States"; "Avail."; "P(full<=1h)"; "P(full<=2h)"; "P(full<=5h)" ];
    rows;
  }

let generators : (string * (unit -> Experiments.artifact)) list =
  [
    ("crew_sweep_line2", fun () -> Experiments.Table (crew_sweep Facility.Line2));
    ("strategy_matrix_line2", fun () -> Experiments.Table (strategy_matrix Facility.Line2));
    ("lumping", fun () -> Experiments.Table (lumping_table ()));
    ("erlang_repair", fun () -> Experiments.Table (erlang_repair_table ()));
    ("importance_line1", fun () -> Experiments.Table (importance_table Facility.Line1));
    ("importance_line2", fun () -> Experiments.Table (importance_table Facility.Line2));
  ]

let ids = List.map fst generators

let by_id id = List.assoc_opt id generators
