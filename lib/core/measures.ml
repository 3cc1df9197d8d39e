module Chain = Ctmc.Chain

type t = {
  built : Semantics.built;
  analysis : Ctmc.Analysis.t;
  csl : Csl.Checker.model;
  cost : Ctmc.Rewards.structure;
}

(* Every measure entry point runs under a measures.<name> span; when
   tracing is off this is a single flag check. *)
let span name f = Obs.Trace.with_span ("measures." ^ name) (fun _ -> f ())

let tree_labels = [ "down"; "operational"; "full_service" ]

let level_label i = Printf.sprintf "sl_ge_%d" i

let reward_names = [ "cost"; "component_cost"; "repair_cost" ]

(* ["<name>_failed"] (any mode) and ["<name>:<mode>"] per extra mode *)
let component_labels c =
  let name = c.Component.name in
  (name ^ "_failed", name)
  :: List.filter_map
       (fun m ->
         if m.Component.fm_name = "failed" then None
         else
           let literal = name ^ ":" ^ m.Component.fm_name in
           Some (literal, literal))
       (Component.modes c)

let make_csl_model ~analysis ~levels ~component_cost ~repair_cost ~cost built =
  let model = built.Semantics.model in
  (* a literal of a grouped component has no value on a reduced build:
     its label raises the same error when a query reads it *)
  let literal_label literal =
    match Semantics.literal_pred built literal with
    | pred -> pred
    | exception (Invalid_argument _ as e) -> fun _ -> raise e
  in
  let component_labels =
    List.concat_map
      (fun c ->
        List.map
          (fun (label, literal) -> (label, literal_label literal))
          (component_labels c))
      model.Model.components
  in
  let labels =
    List.combine tree_labels
      [
        Semantics.down_pred built;
        Semantics.operational_pred built;
        Semantics.service_at_least built 1.;
      ]
    @ List.mapi
        (fun i level -> (level_label i, Semantics.service_at_least built level))
        levels
    @ component_labels
  in
  let rewards =
    List.combine
      (List.map Option.some reward_names)
      [ cost; component_cost; repair_cost ]
  in
  Csl.Checker.of_chain ~analysis ~labels ~rewards built.Semantics.chain

let wrap ~levels built =
  span "wrap" @@ fun () ->
  (* one session per state space: every measure below, and every CSL query
     through {!to_csl_model}, shares its cached transposed rates,
     Fox-Glynn weights and steady-state vector *)
  let analysis = Ctmc.Analysis.create built.Semantics.chain in
  let component_cost, repair_cost = Semantics.cost_structures built in
  let cost = Numeric.Vec.add component_cost repair_cost in
  let csl =
    make_csl_model ~analysis ~levels ~component_cost ~repair_cost ~cost built
  in
  { built; analysis; csl; cost }

(* Every state-space build is counted, so a rebuilt chain shows in the
   registry even with tracing off (test/work_counts pins these per
   paper artifact). *)
let m_builds_symmetric = Obs.Metrics.counter "measures.builds.symmetric"

let m_builds_full = Obs.Metrics.counter "measures.builds.full"

let m_states = Obs.Metrics.counter "measures.states"

let build ?max_states ?initial ~symmetric ?transitions ~levels model =
  let built =
    Obs.Trace.with_span "measures.build" @@ fun sp ->
    let built = Semantics.build ?max_states ~symmetric ?initial ?transitions model in
    Obs.Metrics.incr (if symmetric then m_builds_symmetric else m_builds_full);
    Obs.Metrics.add m_states (Ctmc.Chain.states built.Semantics.chain);
    if Obs.Trace.recording sp then begin
      Obs.Trace.add_attr sp "states"
        (Obs.Int (Ctmc.Chain.states built.Semantics.chain));
      Obs.Trace.add_attr sp "symmetric" (Obs.Bool symmetric)
    end;
    built
  in
  wrap ~levels built

let analyze ?max_states ?initial ?(symmetric = false) model =
  build ?max_states ?initial ~symmetric ~levels:(Model.service_levels model) model

(* Mixture weights: finite, non-negative, with a finite positive total. *)
let check_weights who weights =
  if weights = [] then invalid_arg (who ^ ": empty mixture");
  List.iter
    (fun w ->
      if not (Float.is_finite w && w >= 0.) then
        invalid_arg
          (Printf.sprintf "%s: weights must be finite and non-negative (got %g)"
             who w))
    weights;
  let total = List.fold_left ( +. ) 0. weights in
  if not (Float.is_finite total && total > 0.) then
    invalid_arg
      (Printf.sprintf "%s: total weight must be finite and positive (got %g)"
         who total);
  total

let rooted t weighted =
  let who = "Measures.rooted" in
  let total = check_weights who (List.map fst weighted) in
  let built = t.built in
  let init = Numeric.Vec.zeros (Chain.states built.Semantics.chain) in
  List.iter
    (fun (w, state) ->
      match built.Semantics.state_index state with
      | Some s -> init.(s) <- init.(s) +. (w /. total)
      | None -> invalid_arg (who ^ ": state not in the chain"))
    weighted;
  let analysis = Ctmc.Analysis.with_init t.analysis init in
  let chain = Ctmc.Analysis.chain analysis in
  {
    t with
    built = { built with Semantics.chain };
    analysis;
    csl = { t.csl with Csl.Checker.chain; analysis };
  }

(* A symmetric build answers exactly what every member of an orbit agrees
   on. Of the labels only the literals of grouped components tell members
   apart: the group permutations leave the tree and service-level labels
   unchanged, and an unknown label fails alike on both builds. *)
let exact_on_quotient model =
  match List.concat (Semantics.interchangeable model) with
  | [] -> fun _ -> true
  | grouped ->
      let variant =
        List.concat_map
          (fun name -> List.map fst (component_labels (Model.component model name)))
          grouped
      in
      let rec pure = function
        | Csl.Ast.True | Csl.Ast.False -> true
        | Csl.Ast.Label label -> not (List.mem label variant)
        | Csl.Ast.Not f -> pure f
        | Csl.Ast.And (a, b) | Csl.Ast.Or (a, b) | Csl.Ast.Implies (a, b) ->
            pure a && pure b
        | Csl.Ast.Atomic _ | Csl.Ast.P _ | Csl.Ast.S _ | Csl.Ast.R _ -> false
      in
      (function
      | Csl.Ast.S (_, f) -> pure f
      | Csl.Ast.R (_, _, Csl.Ast.Steady) -> true
      | _ -> false)

module Session = struct
  type measures = t

  type kind = Symmetric | Full

  (* Unlocked: forcing a chain mutates it, so one owner at a time. *)
  type t = {
    model : Model.t;
    levels : float list;
    exact : Csl.Ast.state_formula -> bool;
    symmetric : measures Lazy.t;
    full : measures Lazy.t;
  }

  let create ?initial ?levels model =
    let levels =
      match levels with Some l -> l | None -> Model.service_levels model
    in
    let symmetric = lazy (build ?initial ~symmetric:true ~levels model) in
    (* a full build after the symmetric one takes its transition count,
       so its rate matrix is written once *)
    let full =
      lazy
        (let transitions =
           if Lazy.is_val symmetric then
             Some (snd (Lazy.force symmetric).built.Semantics.full_size)
           else None
         in
         build ?initial ~symmetric:false ?transitions ~levels model)
    in
    { model; levels; exact = exact_on_quotient model; symmetric; full }

  let model s = s.model

  let levels s = s.levels

  let kind_name = function Symmetric -> "symmetric" | Full -> "full"

  let route s q = if s.exact q then Symmetric else Full

  let chain s = function
    | Symmetric -> Lazy.force s.symmetric
    | Full -> Lazy.force s.full

  let built s =
    List.filter_map
      (fun (kind, m) -> if Lazy.is_val m then Some (kind, Lazy.force m) else None)
      [ (Symmetric, s.symmetric); (Full, s.full) ]

  let full_size s =
    let m = if Lazy.is_val s.full then s.full else s.symmetric in
    fst (Lazy.force m).built.Semantics.full_size
end

let built t = t.built

let analysis t = t.analysis

let to_csl_model t = t.csl

let chain t = t.built.Semantics.chain

let not_fully_operational t =
  let full = Semantics.service_at_least t.built 1. in
  fun s -> not (full s)

let unreliability t ~time =
  span "unreliability" @@ fun () ->
  Ctmc.Reachability.bounded_until_from_init ~analysis:t.analysis
    (chain t)
    ~phi:(fun _ -> true)
    ~psi:(not_fully_operational t) ~bound:time

let reliability t ~time = 1. -. unreliability t ~time

let reliability_curve t ~times =
  span "reliability_curve" @@ fun () ->
  let points =
    Ctmc.Reachability.bounded_until_curve ~analysis:t.analysis
      (chain t)
      ~phi:(fun _ -> true)
      ~psi:(not_fully_operational t) ~bounds:times
  in
  List.map (fun (time, p) -> (time, 1. -. p)) points

let availability t =
  span "availability" @@ fun () ->
  Ctmc.Steady_state.long_run_probability ~analysis:t.analysis
    (chain t)
    ~pred:(Semantics.service_at_least t.built 1.)

let any_service_availability t =
  span "any_service_availability" @@ fun () ->
  Ctmc.Steady_state.long_run_probability ~analysis:t.analysis
    (chain t)
    ~pred:(Semantics.operational_pred t.built)

let mean_time_to_degradation t =
  span "mean_time_to_degradation" @@ fun () ->
  Ctmc.Absorption.mean_time_from_init ~analysis:t.analysis (chain t)
    ~psi:(not_fully_operational t)

let mean_time_to_service_loss t =
  span "mean_time_to_service_loss" @@ fun () ->
  Ctmc.Absorption.mean_time_from_init ~analysis:t.analysis (chain t)
    ~psi:(Semantics.down_pred t.built)

let survivability t ~service_level ~time =
  span "survivability" @@ fun () ->
  Ctmc.Reachability.bounded_until_from_init ~analysis:t.analysis
    (chain t)
    ~phi:(fun _ -> true)
    ~psi:(Semantics.service_at_least t.built service_level)
    ~bound:time

let survivability_curve t ~service_level ~times =
  span "survivability_curve" @@ fun () ->
  Ctmc.Reachability.bounded_until_curve ~analysis:t.analysis
    (chain t)
    ~phi:(fun _ -> true)
    ~psi:(Semantics.service_at_least t.built service_level)
    ~bounds:times

(* Translate a witness path over chain states into component-event
   descriptions by diffing consecutive states. *)
let describe_scenario t psi =
  match Ctmc.Witness.most_probable_path (chain t) ~psi with
  | None -> None
  | Some w ->
      let built = t.built in
      let names = Array.of_list (Model.component_names built.Semantics.model) in
      let rec diffs = function
        | a :: (b :: _ as rest) ->
            let sa = Semantics.state built a and sb = Semantics.state built b in
            let events = ref [] in
            Array.iteri
              (fun i name ->
                if sa.Semantics.up.(i) && not sb.Semantics.up.(i) then
                  events := Printf.sprintf "%s fails" name :: !events
                else if (not sa.Semantics.up.(i)) && sb.Semantics.up.(i) then
                  events := Printf.sprintf "%s repaired" name :: !events
                else if sa.Semantics.stage.(i) <> sb.Semantics.stage.(i) then
                  events := Printf.sprintf "%s repair progresses" name :: !events)
              names;
            List.rev !events @ diffs rest
        | [ _ ] | [] -> []
      in
      (match w.Ctmc.Witness.states with
      | [] | [ _ ] -> None (* already in the target: no scenario to tell *)
      | path -> Some (diffs path, w.Ctmc.Witness.probability))

let most_likely_loss_scenario t = describe_scenario t (Semantics.down_pred t.built)

let instantaneous_cost t ~time =
  span "instantaneous_cost" @@ fun () ->
  Ctmc.Rewards.instantaneous ~analysis:t.analysis (chain t)
    ~reward:t.cost
    ~at:time

let accumulated_cost t ~time =
  span "accumulated_cost" @@ fun () ->
  Ctmc.Rewards.accumulated ~analysis:t.analysis (chain t)
    ~reward:t.cost
    ~upto:time

let accumulated_cost_curve t ~times =
  span "accumulated_cost_curve" @@ fun () ->
  Ctmc.Rewards.accumulated_curve ~analysis:t.analysis (chain t)
    ~reward:t.cost
    ~times

let cost_curves t ~times =
  span "cost_curves" @@ fun () ->
  Ctmc.Rewards.both_curves ~analysis:t.analysis (chain t)
    ~reward:t.cost
    ~times

let steady_state_cost t =
  span "steady_state_cost" @@ fun () ->
  Ctmc.Rewards.steady_state ~analysis:t.analysis (chain t)
    ~reward:t.cost

let combined_availability avails =
  1. -. List.fold_left (fun acc a -> acc *. (1. -. a)) 1. avails
