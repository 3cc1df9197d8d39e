module Vec = Numeric.Vec
module Sparse = Numeric.Sparse
module Chain = Ctmc.Chain

type model = {
  chain : Chain.t;
  analysis : Ctmc.Analysis.t;
  label : string -> (int -> bool) option;
  atomic : Prism.Ast.expr -> (int -> bool) option;
  reward : string option -> Numeric.Vec.t option;
}

exception Unsupported of string

let () =
  Printexc.register_printer (function
    | Unsupported msg -> Some (Printf.sprintf "Csl.Checker.Unsupported (%s)" msg)
    | _ -> None)

let unsupported fmt = Printf.ksprintf (fun msg -> raise (Unsupported msg)) fmt

let of_built ?analysis built =
  {
    chain = built.Prism.Builder.chain;
    analysis = Ctmc.Analysis.for_chain analysis built.Prism.Builder.chain;
    label =
      (fun name ->
        if List.mem_assoc name built.Prism.Builder.labels then
          Some (Prism.Builder.label_pred built name)
        else None);
    atomic = (fun expr -> Some (Prism.Builder.state_pred built expr));
    reward =
      (fun name ->
        List.assoc_opt name built.Prism.Builder.reward_structures);
  }

let of_chain ?analysis ?(labels = []) ?(rewards = []) chain =
  {
    chain;
    analysis = Ctmc.Analysis.for_chain analysis chain;
    label = (fun name -> List.assoc_opt name labels);
    atomic = (fun _ -> None);
    reward = (fun name -> List.assoc_opt name rewards);
  }

type result =
  | Value of float
  | Satisfied of bool

let compare_bound cmp threshold x =
  match cmp with
  | Ast.Lt -> x < threshold
  | Ast.Le -> x <= threshold
  | Ast.Gt -> x > threshold
  | Ast.Ge -> x >= threshold

(* [model] started in state [s]: a view of its session
   ({!Ctmc.Analysis.with_init}) that shares the rate operator's caches,
   with its own steady-state vectors *)
let rerooted model s =
  let analysis =
    Ctmc.Analysis.with_init model.analysis (Vec.unit (Chain.states model.chain) s)
  in
  { model with chain = Ctmc.Analysis.chain analysis; analysis }

(* Per-state probability of a path formula. *)
let rec path_probabilities model path =
  let n = Chain.states model.chain in
  match path with
  | Ast.Next (interval, f) ->
      (* P(X phi within [a,b]) = P(first jump in the interval) * P(jump
         lands in phi): the jump time and target are independent *)
      let sat = satisfaction model f in
      let emb = Ctmc.Analysis.embedded model.analysis in
      let exits = Chain.exit_rates model.chain in
      let timing s =
        let e = exits.(s) in
        match interval with
        | Ast.Unbounded -> 1.
        | Ast.Upto t -> 1. -. Float.exp (-.e *. t)
        | Ast.Within (a, b) -> Float.exp (-.e *. a) -. Float.exp (-.e *. b)
      in
      Array.init n (fun s ->
          if exits.(s) = 0. then 0.
          else begin
            let acc = ref 0. in
            Sparse.iter_row emb s (fun j p -> if sat.(j) then acc := !acc +. p);
            !acc *. timing s
          end)
  | Ast.Eventually (i, f) -> path_probabilities model (Ast.Until (Ast.True, i, f))
  | Ast.Globally (i, f) ->
      (* P(G f) = 1 - P(F !f) *)
      let complement = path_probabilities model (Ast.Until (Ast.True, i, Ast.Not f)) in
      Array.map (fun p -> 1. -. p) complement
  | Ast.Until (f1, i, f2) -> (
      let sat1 = satisfaction model f1 in
      let sat2 = satisfaction model f2 in
      let phi s = sat1.(s) in
      let psi s = sat2.(s) in
      match i with
      | Ast.Unbounded ->
          Ctmc.Reachability.unbounded_until ~analysis:model.analysis model.chain
            ~phi ~psi
      | Ast.Upto t ->
          Ctmc.Reachability.bounded_until ~analysis:model.analysis model.chain
            ~phi ~psi ~bound:t
      | Ast.Within (a, b) ->
          Ctmc.Reachability.interval_until ~analysis:model.analysis model.chain
            ~phi ~psi ~lower:a ~upper:b)

and reward_value model name query =
  let reward =
    match model.reward name with
    | Some r -> r
    | None ->
        unsupported "unknown reward structure %s"
          (match name with None -> "(unnamed)" | Some n -> Printf.sprintf "%S" n)
  in
  match query with
  | Ast.Instantaneous t ->
      Ctmc.Rewards.instantaneous ~analysis:model.analysis model.chain ~reward
        ~at:t
  | Ast.Cumulative t ->
      Ctmc.Rewards.accumulated ~analysis:model.analysis model.chain ~reward
        ~upto:t
  | Ast.Steady ->
      Ctmc.Rewards.steady_state ~analysis:model.analysis model.chain ~reward

and satisfaction model formula =
  let n = Chain.states model.chain in
  match formula with
  | Ast.True -> Array.make n true
  | Ast.False -> Array.make n false
  | Ast.Label name -> (
      match model.label name with
      | Some pred -> Array.init n pred
      | None -> unsupported "unknown label %S" name)
  | Ast.Atomic expr -> (
      match model.atomic expr with
      | Some pred -> Array.init n pred
      | None ->
          unsupported "cannot resolve atomic expression %s"
            (Prism.Printer.expr_to_string expr))
  | Ast.Not f -> Array.map not (satisfaction model f)
  | Ast.And (a, b) ->
      let sa = satisfaction model a and sb = satisfaction model b in
      Array.init n (fun s -> sa.(s) && sb.(s))
  | Ast.Or (a, b) ->
      let sa = satisfaction model a and sb = satisfaction model b in
      Array.init n (fun s -> sa.(s) || sb.(s))
  | Ast.Implies (a, b) ->
      let sa = satisfaction model a and sb = satisfaction model b in
      Array.init n (fun s -> (not sa.(s)) || sb.(s))
  | Ast.P (Ast.Query, _) | Ast.S (Ast.Query, _) | Ast.R (_, Ast.Query, _) ->
      unsupported "a =? query cannot be nested inside a state formula"
  | Ast.P (Ast.Bounded (cmp, p), path) ->
      let probs = path_probabilities model path in
      Array.map (compare_bound cmp p) probs
  | Ast.S (Ast.Bounded (cmp, p), f) ->
      (* S is initial-state independent only for irreducible chains; for the
         general case PRISM computes a per-state value (probability weighted
         by the BSCCs reachable from each state). We support the common
         irreducible case per-state, and otherwise evaluate from each state
         by re-rooting the chain. *)
      let sat = satisfaction model f in
      if Ctmc.Steady_state.is_irreducible ~analysis:model.analysis model.chain
      then begin
        let pi = Ctmc.Steady_state.solve ~analysis:model.analysis model.chain in
        let total = ref 0. in
        Array.iteri (fun s mass -> if sat.(s) then total := !total +. mass) pi;
        Array.make n (compare_bound cmp p !total)
      end
      else
        Array.init n (fun s ->
            let rooted = rerooted model s in
            let v =
              Ctmc.Steady_state.long_run_probability ~analysis:rooted.analysis
                rooted.chain ~pred:(fun i -> sat.(i))
            in
            compare_bound cmp p v)
  | Ast.R (name, Ast.Bounded (cmp, threshold), query) ->
      (* reward bounds are evaluated from each state as initial state *)
      Array.init n (fun s ->
          let v = reward_value (rerooted model s) name query in
          compare_bound cmp threshold v)

let initial_states model =
  let init = Chain.initial model.chain in
  let out = ref [] in
  Array.iteri (fun s p -> if p > 0. then out := s :: !out) init;
  !out

let check model formula =
  match formula with
  | Ast.P (Ast.Query, path) ->
      let probs = path_probabilities model path in
      Value (Vec.dot (Chain.initial model.chain) probs)
  | Ast.S (Ast.Query, f) ->
      let sat = satisfaction model f in
      Value
        (Ctmc.Steady_state.long_run_probability ~analysis:model.analysis
           model.chain
           ~pred:(fun s -> sat.(s)))
  | Ast.R (name, Ast.Query, query) -> Value (reward_value model name query)
  | _ ->
      let sat = satisfaction model formula in
      Satisfied (List.for_all (fun s -> sat.(s)) (initial_states model))

let check_string model input =
  Obs.Trace.with_span "csl.check" @@ fun span ->
  if Obs.Trace.recording span then begin
    Obs.Trace.add_attr span "query" (Obs.Str input);
    Obs.Trace.add_attr span "states" (Obs.Int (Chain.states model.chain))
  end;
  check model (Parser.parse input)

let value model input =
  match check_string model input with
  | Value v -> v
  | Satisfied _ -> unsupported "expected a =? query, got a boolean formula"
