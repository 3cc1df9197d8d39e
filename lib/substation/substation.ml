open Core

(* Components. Rates are engineering-plausible, in hours:
   - transformers: fail about once a year, replacement takes a week and is
     a two-stage procedure (drain + swap);
   - feeders: overhead lines, fail quarterly, repaired within a day;
   - protection relay: a stuck (undetected-dangerous) failure every two
     years with a day of diagnosis, spurious trips twice a year reset in
     two hours;
   - station supply: fails twice a year, half a day to fix; its battery
     backup cannot fail while dormant and holds for ~500 h when carrying
     the load. *)

let transformer name =
  Component.make ~name ~mttf:8760. ~mttr:168. ~repair_stages:2 ~failed_cost:20. ()

let feeder name = Component.make ~name ~mttf:2190. ~mttr:24. ~failed_cost:2. ()

let relay =
  Component.make ~name:"relay" ~mttf:17520. ~mttr:24. ~failed_cost:10.
    ~extra_modes:
      [ Component.failure_mode ~name:"spurious" ~mttf:4380. ~mttr:2. ~failed_cost:4. () ]
    ()
(* the primary mode plays the "stuck" role; we also expose it in the fault
   tree under its generic name "relay:failed" *)

let station_supply = Component.make ~name:"ss" ~mttf:4380. ~mttr:12. ~failed_cost:5. ()

let battery = Component.make ~name:"bat" ~mttf:500. ~mttr:8. ~failed_cost:5. ()

let feeders = [ "f1"; "f2"; "f3"; "f4" ]

let component_names = [ "relay"; "tr1"; "tr2"; "ss"; "bat" ] @ feeders

let priority_order = component_names

let components =
  [ relay; transformer "tr1"; transformer "tr2"; station_supply; battery ]
  @ List.map feeder feeders

let fault_tree =
  Fault_tree.or_
    [
      (* no transformation capacity *)
      Fault_tree.and_ [ Fault_tree.basic "tr1"; Fault_tree.basic "tr2" ];
      (* too few feeders: at least 2 of 4 down *)
      Fault_tree.kofn 2 (List.map Fault_tree.basic feeders);
      (* protection gone (dangerous) or tripped (safe) - either way, no
         distribution until repaired *)
      Fault_tree.basic "relay:failed";
      Fault_tree.basic "relay:spurious";
      (* auxiliary power exhausted *)
      Fault_tree.and_ [ Fault_tree.basic "ss"; Fault_tree.basic "bat" ];
    ]

let spare_units =
  [
    (* tr2 is energized but unloaded: it ages at 30% while tr1 carries the
       load *)
    Spare.make ~name:"transformer_spare" ~mode:(Spare.Warm 0.3) ~primaries:[ "tr1" ]
      ~spares:[ "tr2" ] ();
    (* the battery cannot fail while the station supply is healthy *)
    Spare.make ~name:"aux_supply" ~mode:Spare.Cold ~primaries:[ "ss" ]
      ~spares:[ "bat" ] ();
  ]

let model_with ?(crews = 1) ?(strategy = Repair.Priority priority_order) () =
  Model.make ~name:"substation" ~components
    ~repair_units:
      [ Repair.make ~name:"crew" ~strategy ~crews ~components:component_names () ]
    ~spare_units ~fault_tree ()

let model = model_with ()

let storm = [ "f1"; "f2"; "tr1"; "relay:spurious" ]

let summary ppf () =
  let m = Measures.analyze model in
  let built = Measures.built m in
  Format.fprintf ppf "=== substation (priority repair, 1 crew) ===@.";
  Format.fprintf ppf "state space: %a@." Ctmc.Chain.pp_stats built.Semantics.chain;
  Format.fprintf ppf "availability (full service): %.6f@." (Measures.availability m);
  Format.fprintf ppf "availability (any service):  %.6f@."
    (Measures.any_service_availability m);
  Format.fprintf ppf "mean time to degradation:    %.1f h@."
    (Measures.mean_time_to_degradation m);
  Format.fprintf ppf "mean time to blackout:       %.1f h@."
    (Measures.mean_time_to_service_loss m);
  (match Measures.most_likely_loss_scenario m with
  | Some (events, p) ->
      Format.fprintf ppf "likeliest blackout (p = %.4f): %s@." p
        (String.concat "; " events)
  | None -> ());
  (* the storm state is reachable from all-up: root the GOOD model in [m]
     instead of building its state space a second time *)
  let good = Measures.rooted m [ (1., Semantics.disaster_state model ~failed:storm) ] in
  Format.fprintf ppf "@.storm recovery (2 feeders + active transformer + spurious trip):@.";
  List.iter
    (fun t ->
      Format.fprintf ppf "  P(full service within %4.0f h) = %.6f@." t
        (Measures.survivability good ~service_level:1. ~time:t))
    [ 4.; 24.; 72.; 240. ];
  Format.fprintf ppf "  accumulated cost over 240 h:  %.1f@."
    (Measures.accumulated_cost good ~time:240.);
  Format.fprintf ppf "@.importance (by Birnbaum):@.";
  Importance.pp_table ppf (Importance.analyze ~analysis:(Measures.analysis m) built)
