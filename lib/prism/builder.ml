module Vec = Numeric.Vec
module Sparse = Numeric.Sparse

exception Build_error of string

let () =
  Printexc.register_printer (function
    | Build_error msg -> Some (Printf.sprintf "Prism.Builder.Build_error (%s)" msg)
    | _ -> None)

let error fmt = Printf.ksprintf (fun msg -> raise (Build_error msg)) fmt

type var_info = {
  name : string;
  owner : string; (* module name *)
  is_bool : bool;
  low : int;
  high : int;
  init : int;
}

type built = {
  chain : Ctmc.Chain.t;
  var_names : string array;
  var_is_bool : bool array;
  state_vectors : int array array;
  index_of_vector : int array -> int option;
  labels : (string * bool array) list;
  reward_structures : (string option * Numeric.Vec.t) list;
}

(* Resolve the variable table: evaluate range bounds and initial values
   under the constants. *)
let variable_table consts_env model =
  let vars = ref [] in
  List.iter
    (fun m ->
      List.iter
        (fun { Ast.var_name; var_type; var_init } ->
          if List.exists (fun v -> v.name = var_name) !vars then
            error "duplicate variable %s" var_name;
          let info =
            match var_type with
            | Ast.Tbool ->
                let init =
                  match var_init with
                  | None -> 0
                  | Some e -> if Eval.eval_bool consts_env e then 1 else 0
                in
                { name = var_name; owner = m.Ast.mod_name; is_bool = true;
                  low = 0; high = 1; init }
            | Ast.Tint_range (low_e, high_e) ->
                let low = Eval.eval_int consts_env low_e in
                let high = Eval.eval_int consts_env high_e in
                if low > high then error "variable %s: empty range [%d..%d]" var_name low high;
                let init =
                  match var_init with None -> low | Some e -> Eval.eval_int consts_env e
                in
                if init < low || init > high then
                  error "variable %s: init %d outside [%d..%d]" var_name init low high;
                { name = var_name; owner = m.Ast.mod_name; is_bool = false; low; high; init }
          in
          vars := info :: !vars)
        m.Ast.mod_vars)
    model.Ast.modules;
  Array.of_list (List.rev !vars)

let build ?(max_states = 2_000_000) model =
  let constants =
    try Eval.eval_constants model.Ast.constants
    with Eval.Eval_error msg -> error "constants: %s" msg
  in
  let consts_env =
    Eval.make_env ~constants ~formulas:model.Ast.formulas ~lookup_var:(fun _ -> None)
  in
  let vars = variable_table consts_env model in
  let nvars = Array.length vars in
  let var_index = Hashtbl.create nvars in
  Array.iteri (fun i v -> Hashtbl.replace var_index v.name i) vars;
  let env_for state =
    Eval.make_env ~constants ~formulas:model.Ast.formulas ~lookup_var:(fun name ->
        match Hashtbl.find_opt var_index name with
        | None -> None
        | Some i ->
            let raw = state.(i) in
            Some (if vars.(i).is_bool then Eval.Vbool (raw <> 0) else Eval.Vint raw))
  in
  (* Pre-check that every command writes only its own module's variables. *)
  List.iter
    (fun m ->
      List.iter
        (fun cmd ->
          List.iter
            (fun { Ast.update; _ } ->
              List.iter
                (fun (v, _) ->
                  match Hashtbl.find_opt var_index v with
                  | None -> error "module %s assigns unknown variable %s" m.Ast.mod_name v
                  | Some i ->
                      if vars.(i).owner <> m.Ast.mod_name then
                        error "module %s assigns variable %s owned by module %s"
                          m.Ast.mod_name v vars.(i).owner)
                update)
            cmd.Ast.alternatives)
        m.Ast.mod_commands)
    model.Ast.modules;
  (* Action alphabet: modules that mention each action. *)
  let actions = Hashtbl.create 8 in
  List.iter
    (fun m ->
      List.iter
        (fun cmd ->
          match cmd.Ast.action with
          | None -> ()
          | Some a ->
              let mods = try Hashtbl.find actions a with Not_found -> [] in
              if not (List.mem m.Ast.mod_name mods) then
                Hashtbl.replace actions a (m.Ast.mod_name :: mods))
        m.Ast.mod_commands)
    model.Ast.modules;
  let apply_update state update =
    let state' = Array.copy state in
    let env = env_for state in
    List.iter
      (fun (v, e) ->
        let i = Hashtbl.find var_index v in
        let value =
          if vars.(i).is_bool then (if Eval.eval_bool env e then 1 else 0)
          else begin
            let x = Eval.eval_int env e in
            if x < vars.(i).low || x > vars.(i).high then
              error "assignment %s' = %d outside [%d..%d]" v x vars.(i).low vars.(i).high;
            x
          end
        in
        state'.(i) <- value)
      update;
    state'
  in
  (* Transitions out of one state: (rate, successor) list. *)
  let successors state =
    let env = env_for state in
    let out = ref [] in
    let emit rate state' =
      if rate < 0. then error "negative rate %g" rate;
      if rate > 0. && state' <> state then out := (rate, state') :: !out
    in
    (* unlabelled commands: interleaving *)
    List.iter
      (fun m ->
        List.iter
          (fun cmd ->
            if cmd.Ast.action = None && Eval.eval_bool env cmd.Ast.guard then
              List.iter
                (fun { Ast.weight; update } ->
                  emit (Eval.eval_number env weight) (apply_update state update))
                cmd.Ast.alternatives)
          m.Ast.mod_commands)
      model.Ast.modules;
    (* synchronized commands: every participating module must offer one *)
    Hashtbl.iter
      (fun action participating ->
        let enabled_per_module =
          List.map
            (fun mod_name ->
              let m = List.find (fun m -> m.Ast.mod_name = mod_name) model.Ast.modules in
              List.concat_map
                (fun cmd ->
                  if cmd.Ast.action = Some action && Eval.eval_bool env cmd.Ast.guard then
                    List.map (fun alt -> alt) cmd.Ast.alternatives
                  else [])
                m.Ast.mod_commands)
            participating
        in
        if List.for_all (fun alts -> alts <> []) enabled_per_module then begin
          (* cartesian product of alternatives across modules *)
          let rec product acc = function
            | [] -> [ List.rev acc ]
            | alts :: rest ->
                List.concat_map (fun alt -> product (alt :: acc) rest) alts
          in
          List.iter
            (fun combo ->
              let rate =
                List.fold_left
                  (fun r { Ast.weight; _ } -> r *. Eval.eval_number env weight)
                  1. combo
              in
              (* ownership checks guarantee the modules write disjoint
                 variables, so merging the updates and applying them in a
                 single pass from the original state implements PRISM's
                 simultaneous-update semantics *)
              let merged = List.concat_map (fun { Ast.update; _ } -> update) combo in
              emit rate (apply_update state merged))
            (product [] enabled_per_module)
        end)
      actions;
    !out
  in
  (* BFS exploration: states are numbered in discovery order, so the BFS
     queue is the id range of the interning table *)
  let table = Numeric.Intern.create ~width:nvars () in
  let intern state =
    let i = Numeric.Intern.intern table state 0 in
    if Numeric.Intern.count table > max_states then
      error "state space exceeds max_states = %d" max_states;
    i
  in
  ignore (intern (Array.map (fun v -> v.init) vars));
  (* rows come out in state order and go straight into CSR; successors
     are interned in emission order and each row summed in reverse *)
  let rows = Sparse.Rows.create () in
  let i = ref 0 in
  while !i < Numeric.Intern.count table do
    let row =
      List.map
        (fun (rate, state') -> (intern state', rate))
        (try successors (Numeric.Intern.key table !i)
         with Eval.Eval_error msg -> error "evaluating transitions: %s" msg)
    in
    List.iter (fun (j, rate) -> Sparse.Rows.add rows j rate) (List.rev row);
    Sparse.Rows.end_row rows;
    incr i
  done;
  let n = Numeric.Intern.count table in
  let state_vectors = Array.init n (Numeric.Intern.key table) in
  let init = Vec.unit n 0 in
  let chain = Ctmc.Chain.make ~init (Sparse.Rows.to_csr rows ~cols:n) in
  (* labels and rewards per state *)
  let eval_label body =
    Array.map
      (fun state ->
        try Eval.eval_bool (env_for state) body
        with Eval.Eval_error msg -> error "label: %s" msg)
      state_vectors
  in
  let labels =
    List.map (fun { Ast.label_name; label_body } -> (label_name, eval_label label_body)) model.Ast.labels
  in
  let reward_structures =
    List.map
      (fun { Ast.rewards_name; rewards_items } ->
        let values =
          Array.map
            (fun state ->
              let env = env_for state in
              List.fold_left
                (fun acc { Ast.reward_guard; reward_value } ->
                  try
                    if Eval.eval_bool env reward_guard then
                      acc +. Eval.eval_number env reward_value
                    else acc
                  with Eval.Eval_error msg -> error "rewards: %s" msg)
                0. rewards_items)
            state_vectors
        in
        (rewards_name, values))
      model.Ast.rewards
  in
  {
    chain;
    var_names = Array.map (fun v -> v.name) vars;
    var_is_bool = Array.map (fun v -> v.is_bool) vars;
    state_vectors;
    index_of_vector =
      (fun v ->
        if Array.length v <> nvars then None
        else
          match Numeric.Intern.find table v 0 with -1 -> None | i -> Some i);
    labels;
    reward_structures;
  }

let label_pred built name =
  let values = List.assoc name built.labels in
  fun s -> values.(s)

let state_pred built expr =
  (* Rebuild a tiny evaluation context over the stored vectors. We do not
     keep the constants/formulas around in [built]; predicates passed here
     must be closed over variables only. *)
  let var_index = Hashtbl.create (Array.length built.var_names) in
  Array.iteri (fun i name -> Hashtbl.replace var_index name i) built.var_names;
  fun s ->
    let state = built.state_vectors.(s) in
    let env =
      Eval.make_env ~constants:[] ~formulas:[] ~lookup_var:(fun name ->
          match Hashtbl.find_opt var_index name with
          | None -> None
          | Some i ->
              Some
                (if built.var_is_bool.(i) then Eval.Vbool (state.(i) <> 0)
                 else Eval.Vint state.(i)))
    in
    Eval.eval_bool env expr
